//! Compiler personalities, optimization levels and the floating-point
//! semantics derived from them.
//!
//! This module is the direct counterpart of Table 1 in the paper: three
//! compilers (gcc, clang as host compilers; nvcc as the device compiler) and
//! six optimization levels from `O0_nofma` (most IEEE-compliant) to
//! `O3_fastmath` (fastest, least compliant).

use serde::{Deserialize, Serialize};
use std::sync::Arc;

use llm4fp_mathlib::{DeviceMathLib, FastMathLib, HostLibm, HostVariantLibm, MathLib};

/// Compiler personality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum CompilerId {
    /// Host compiler, GNU-style defaults (contracts FMAs from `-O1`, links
    /// the reference host math library).
    Gcc,
    /// Host compiler, LLVM-style defaults (more conservative in-statement
    /// contraction, links a slightly different math library build).
    Clang,
    /// Device compiler (contracts FMAs at every level unless `--fmad=false`,
    /// links the device math library, `--use_fast_math` swaps in hardware
    /// approximation routines).
    Nvcc,
}

impl CompilerId {
    /// All personalities, host compilers first (mirrors the paper's setup).
    pub const ALL: [CompilerId; 3] = [CompilerId::Gcc, CompilerId::Clang, CompilerId::Nvcc];

    /// True for compilers that target the host CPU.
    pub fn is_host(self) -> bool {
        !matches!(self, CompilerId::Nvcc)
    }

    /// Short display name, matching the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            CompilerId::Gcc => "gcc",
            CompilerId::Clang => "clang",
            CompilerId::Nvcc => "nvcc",
        }
    }

    /// The three compiler pairs evaluated in Table 4.
    pub fn pairs() -> [(CompilerId, CompilerId); 3] {
        [
            (CompilerId::Gcc, CompilerId::Clang),
            (CompilerId::Gcc, CompilerId::Nvcc),
            (CompilerId::Clang, CompilerId::Nvcc),
        ]
    }
}

impl std::fmt::Display for CompilerId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Optimization level (Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum OptLevel {
    /// `-O0 -ffp-contract=off` / `-O0 --fmad=false`: the most IEEE-compliant
    /// configuration, used as the reference level in RQ4.
    O0Nofma,
    /// `-O0` with FMA contraction left at the compiler's default.
    O0,
    /// `-O1`.
    O1,
    /// `-O2`.
    O2,
    /// `-O3`.
    O3,
    /// `-O3 -ffast-math` / `-O3 --use_fast_math`: value-unsafe optimizations.
    O3Fastmath,
}

impl OptLevel {
    /// All levels in increasing aggressiveness, as iterated by the harness.
    pub const ALL: [OptLevel; 6] = [
        OptLevel::O0Nofma,
        OptLevel::O0,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::O3Fastmath,
    ];

    /// Display name used in tables (matches the paper's spelling).
    pub fn name(self) -> &'static str {
        match self {
            OptLevel::O0Nofma => "O0_nofma",
            OptLevel::O0 => "O0",
            OptLevel::O1 => "O1",
            OptLevel::O2 => "O2",
            OptLevel::O3 => "O3",
            OptLevel::O3Fastmath => "O3_fastmath",
        }
    }

    /// The command-line flags of Table 1 for a given compiler personality.
    /// These are what the external (real-compiler) harness passes to actual
    /// binaries, and they double as documentation for the virtual semantics.
    pub fn flags(self, compiler: CompilerId) -> Vec<&'static str> {
        match (compiler, self) {
            (CompilerId::Nvcc, OptLevel::O0Nofma) => vec!["-O0", "--fmad=false"],
            (CompilerId::Nvcc, OptLevel::O0) => vec!["-O0"],
            (CompilerId::Nvcc, OptLevel::O1) => vec!["-O1"],
            (CompilerId::Nvcc, OptLevel::O2) => vec!["-O2"],
            (CompilerId::Nvcc, OptLevel::O3) => vec!["-O3"],
            (CompilerId::Nvcc, OptLevel::O3Fastmath) => vec!["-O3", "--use_fast_math"],
            (_, OptLevel::O0Nofma) => vec!["-O0", "-ffp-contract=off"],
            (_, OptLevel::O0) => vec!["-O0"],
            (_, OptLevel::O1) => vec!["-O1"],
            (_, OptLevel::O2) => vec!["-O2"],
            (_, OptLevel::O3) => vec!["-O3"],
            (_, OptLevel::O3Fastmath) => vec!["-O3", "-ffast-math"],
        }
    }

    /// Numeric rank (0 = `O0_nofma`), used when aggregating "vs `O0_nofma`"
    /// statistics.
    pub fn rank(self) -> usize {
        OptLevel::ALL.iter().position(|&l| l == self).expect("level is in ALL")
    }
}

impl std::fmt::Display for OptLevel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Which `a*b ± c` shapes a personality is willing to contract into fused
/// multiply-adds. Real compilers differ here: GCC's `-ffp-contract=fast`
/// contracts across the whole expression including when the multiply is the
/// right-hand addend, while LLVM's in-statement contraction is more
/// conservative; nvcc contracts aggressively at every level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ContractionStyle {
    /// No contraction.
    Off,
    /// Contract only `mul + addend` and `mul - subtrahend` (multiply on the
    /// left-hand side of the addition/subtraction).
    MulOnLeft,
    /// Contract every shape: `a*b + c`, `c + a*b`, `a*b - c`, `c - a*b`.
    Aggressive,
}

/// How fast-math reassociates chains of associative operations. The three
/// personalities use different strategies, so `-ffast-math` compilations of
/// the same sum legitimately differ between compilers (this drives the
/// host-host inconsistencies at `O3_fastmath` in Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ReassocStyle {
    /// Keep the source association (no reassociation).
    SourceOrder,
    /// Rebuild chains as a balanced tree (pairwise/vectorized style).
    BalancedTree,
    /// Regroup constants and hoist them to the front, keep the rest in
    /// source order.
    ConstantsFirst,
    /// Reverse the chain (accumulate from the last operand backwards).
    Reversed,
}

/// Which math library call sites are lowered to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MathLibKind {
    /// Reference host library (gcc).
    Host,
    /// Variant host library build (clang).
    HostVariant,
    /// Device math library (nvcc).
    Device,
    /// Fast-math approximation library (nvcc under `--use_fast_math`).
    Fast,
}

impl MathLibKind {
    /// Instantiate the library.
    pub fn instantiate(self) -> Arc<dyn MathLib> {
        match self {
            MathLibKind::Host => Arc::new(HostLibm::new()),
            MathLibKind::HostVariant => Arc::new(HostVariantLibm::new()),
            MathLibKind::Device => Arc::new(DeviceMathLib::new()),
            MathLibKind::Fast => Arc::new(FastMathLib::new()),
        }
    }

    /// Process-wide shared instance. The libraries are stateless, so a
    /// shared instance is observationally identical to a fresh one; the
    /// sealing hot path uses this to avoid a per-seal allocation.
    pub fn shared(self) -> Arc<dyn MathLib> {
        use std::sync::OnceLock;
        static HOST: OnceLock<Arc<dyn MathLib>> = OnceLock::new();
        static HOST_VARIANT: OnceLock<Arc<dyn MathLib>> = OnceLock::new();
        static DEVICE: OnceLock<Arc<dyn MathLib>> = OnceLock::new();
        static FAST: OnceLock<Arc<dyn MathLib>> = OnceLock::new();
        let cell = match self {
            MathLibKind::Host => &HOST,
            MathLibKind::HostVariant => &HOST_VARIANT,
            MathLibKind::Device => &DEVICE,
            MathLibKind::Fast => &FAST,
        };
        Arc::clone(cell.get_or_init(|| self.instantiate()))
    }
}

/// The floating-point semantics a (compiler, level) pair compiles under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Semantics {
    /// FMA contraction style.
    pub contraction: ContractionStyle,
    /// Whether value-unsafe fast-math rewrites are enabled at all.
    pub fast_math: bool,
    /// Reassociation strategy (only used when `fast_math` is true).
    pub reassoc: ReassocStyle,
    /// Rewrite `x / y` into `x * (1/y)` (fast-math). When `approx_recip` is
    /// also set the reciprocal itself is an approximation.
    pub recip_division: bool,
    /// Use the hardware approximate-reciprocal path for reciprocals.
    pub approx_recip: bool,
    /// Apply algebraic simplifications that are invalid under IEEE semantics
    /// (`x - x -> 0`, `x * 0 -> 0`, `x + 0 -> x`).
    pub algebraic_simplify: bool,
    /// Math library used for call lowering.
    pub math_lib: MathLibKind,
    /// Flush subnormal results of arithmetic to zero.
    pub flush_to_zero: bool,
    /// Perform compile-time constant folding.
    pub const_fold: bool,
}

/// A complete compiler configuration: who compiles, at which level.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct CompilerConfig {
    pub compiler: CompilerId,
    pub level: OptLevel,
}

impl CompilerConfig {
    pub fn new(compiler: CompilerId, level: OptLevel) -> Self {
        CompilerConfig { compiler, level }
    }

    /// Every (compiler, level) combination of the evaluation matrix
    /// (3 compilers × 6 levels = 18 configurations).
    pub fn full_matrix() -> Vec<CompilerConfig> {
        let mut out = Vec::with_capacity(CompilerId::ALL.len() * OptLevel::ALL.len());
        for &c in &CompilerId::ALL {
            for &l in &OptLevel::ALL {
                out.push(CompilerConfig::new(c, l));
            }
        }
        out
    }

    /// Display label like `gcc@O3_fastmath`.
    pub fn label(&self) -> String {
        format!("{}@{}", self.compiler.name(), self.level.name())
    }

    /// Derive the floating-point semantics this configuration compiles under.
    ///
    /// The table below is the heart of the virtual compiler; DESIGN.md
    /// documents how each row maps to real gcc/clang/nvcc behaviour.
    pub fn semantics(&self) -> Semantics {
        use CompilerId::*;
        use OptLevel::*;

        let contraction = match (self.compiler, self.level) {
            // O0_nofma disables contraction everywhere (that is its purpose).
            (_, O0Nofma) => ContractionStyle::Off,
            // nvcc contracts at every other level by default (--fmad=true).
            (Nvcc, _) => ContractionStyle::Aggressive,
            // gcc -ffp-contract=fast kicks in with optimization.
            (Gcc, O0) => ContractionStyle::Off,
            (Gcc, _) => ContractionStyle::Aggressive,
            // clang contracts in-statement only, and only with optimization.
            (Clang, O0) => ContractionStyle::Off,
            (Clang, _) => ContractionStyle::MulOnLeft,
        };

        let fast_math = self.level == O3Fastmath;

        let reassoc = if !fast_math {
            ReassocStyle::SourceOrder
        } else {
            match self.compiler {
                Gcc => ReassocStyle::BalancedTree,
                Clang => ReassocStyle::ConstantsFirst,
                Nvcc => ReassocStyle::Reversed,
            }
        };

        let math_lib = match (self.compiler, fast_math) {
            (Gcc, _) => MathLibKind::Host,
            (Clang, _) => MathLibKind::HostVariant,
            // Host fast-math keeps libm but allows unsafe rewrites; nvcc
            // --use_fast_math swaps the math functions themselves.
            (Nvcc, false) => MathLibKind::Device,
            (Nvcc, true) => MathLibKind::Fast,
        };

        Semantics {
            contraction,
            fast_math,
            reassoc,
            recip_division: fast_math,
            approx_recip: fast_math && self.compiler == Nvcc,
            algebraic_simplify: fast_math,
            math_lib,
            flush_to_zero: fast_math,
            const_fold: self.level.rank() >= OptLevel::O1.rank(),
        }
    }
}

impl std::fmt::Display for CompilerConfig {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_matrix_has_18_configurations() {
        let m = CompilerConfig::full_matrix();
        assert_eq!(m.len(), 18);
        // All distinct.
        let mut sorted = m.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), 18);
    }

    #[test]
    fn full_matrix_maps_onto_ten_distinct_semantics() {
        // Configurations that share a `Semantics` compile every program to
        // the same bits in the virtual compiler: O1/O2/O3 are copies by
        // construction, and `O0` differs from `O0_nofma` only on nvcc,
        // which contracts FMAs at `O0` by default.
        use CompilerId::*;
        use OptLevel::*;
        let mut classes: Vec<(Semantics, Vec<CompilerConfig>)> = Vec::new();
        for config in CompilerConfig::full_matrix() {
            let semantics = config.semantics();
            match classes.iter_mut().find(|(known, _)| *known == semantics) {
                Some((_, members)) => members.push(config),
                None => classes.push((semantics, vec![config])),
            }
        }
        let class = |compiler, levels: &[OptLevel]| -> Vec<CompilerConfig> {
            levels.iter().map(|&level| CompilerConfig::new(compiler, level)).collect()
        };
        let mut expected = Vec::new();
        for host in [Gcc, Clang] {
            expected.extend([class(host, &[O0Nofma, O0]), class(host, &[O1, O2, O3])]);
            expected.push(class(host, &[O3Fastmath]));
        }
        expected.extend([class(Nvcc, &[O0Nofma]), class(Nvcc, &[O0])]);
        expected.extend([class(Nvcc, &[O1, O2, O3]), class(Nvcc, &[O3Fastmath])]);
        let actual: Vec<Vec<CompilerConfig>> =
            classes.into_iter().map(|(_, members)| members).collect();
        assert_eq!(actual.len(), 10);
        assert_eq!(actual, expected);
    }

    #[test]
    fn table1_flags_match_the_paper() {
        assert_eq!(OptLevel::O0Nofma.flags(CompilerId::Gcc), vec!["-O0", "-ffp-contract=off"]);
        assert_eq!(OptLevel::O0Nofma.flags(CompilerId::Nvcc), vec!["-O0", "--fmad=false"]);
        assert_eq!(OptLevel::O3Fastmath.flags(CompilerId::Clang), vec!["-O3", "-ffast-math"]);
        assert_eq!(OptLevel::O3Fastmath.flags(CompilerId::Nvcc), vec!["-O3", "--use_fast_math"]);
        assert_eq!(OptLevel::O2.flags(CompilerId::Gcc), vec!["-O2"]);
    }

    #[test]
    fn o0_nofma_is_strict_for_every_compiler() {
        for &c in &CompilerId::ALL {
            let s = CompilerConfig::new(c, OptLevel::O0Nofma).semantics();
            assert_eq!(s.contraction, ContractionStyle::Off, "{c}");
            assert!(!s.fast_math);
            assert!(!s.recip_division);
            assert!(!s.flush_to_zero);
            assert!(!s.const_fold);
        }
    }

    #[test]
    fn nvcc_contracts_at_o0_but_hosts_do_not() {
        let nvcc = CompilerConfig::new(CompilerId::Nvcc, OptLevel::O0).semantics();
        let gcc = CompilerConfig::new(CompilerId::Gcc, OptLevel::O0).semantics();
        let clang = CompilerConfig::new(CompilerId::Clang, OptLevel::O0).semantics();
        assert_eq!(nvcc.contraction, ContractionStyle::Aggressive);
        assert_eq!(gcc.contraction, ContractionStyle::Off);
        assert_eq!(clang.contraction, ContractionStyle::Off);
    }

    #[test]
    fn host_compilers_contract_differently_with_optimization() {
        let gcc = CompilerConfig::new(CompilerId::Gcc, OptLevel::O2).semantics();
        let clang = CompilerConfig::new(CompilerId::Clang, OptLevel::O2).semantics();
        assert_eq!(gcc.contraction, ContractionStyle::Aggressive);
        assert_eq!(clang.contraction, ContractionStyle::MulOnLeft);
    }

    #[test]
    fn fastmath_semantics_differ_per_compiler() {
        let gcc = CompilerConfig::new(CompilerId::Gcc, OptLevel::O3Fastmath).semantics();
        let clang = CompilerConfig::new(CompilerId::Clang, OptLevel::O3Fastmath).semantics();
        let nvcc = CompilerConfig::new(CompilerId::Nvcc, OptLevel::O3Fastmath).semantics();
        for s in [gcc, clang, nvcc] {
            assert!(s.fast_math);
            assert!(s.recip_division);
            assert!(s.algebraic_simplify);
            assert!(s.flush_to_zero);
        }
        assert_ne!(gcc.reassoc, clang.reassoc);
        assert_ne!(gcc.reassoc, nvcc.reassoc);
        // Only the device compiler swaps in the approximation library.
        assert_eq!(gcc.math_lib, MathLibKind::Host);
        assert_eq!(clang.math_lib, MathLibKind::HostVariant);
        assert_eq!(nvcc.math_lib, MathLibKind::Fast);
        assert!(nvcc.approx_recip);
        assert!(!gcc.approx_recip);
    }

    #[test]
    fn math_libraries_track_the_compiler_below_fastmath() {
        for &l in &[OptLevel::O0Nofma, OptLevel::O0, OptLevel::O1, OptLevel::O2, OptLevel::O3] {
            assert_eq!(
                CompilerConfig::new(CompilerId::Gcc, l).semantics().math_lib,
                MathLibKind::Host
            );
            assert_eq!(
                CompilerConfig::new(CompilerId::Clang, l).semantics().math_lib,
                MathLibKind::HostVariant
            );
            assert_eq!(
                CompilerConfig::new(CompilerId::Nvcc, l).semantics().math_lib,
                MathLibKind::Device
            );
        }
    }

    #[test]
    fn labels_and_ranks() {
        assert_eq!(
            CompilerConfig::new(CompilerId::Gcc, OptLevel::O3Fastmath).label(),
            "gcc@O3_fastmath"
        );
        assert_eq!(OptLevel::O0Nofma.rank(), 0);
        assert_eq!(OptLevel::O3Fastmath.rank(), 5);
        assert_eq!(CompilerId::pairs().len(), 3);
        assert!(CompilerId::Gcc.is_host());
        assert!(!CompilerId::Nvcc.is_host());
    }

    #[test]
    fn mathlib_kinds_instantiate_with_matching_names() {
        assert_eq!(MathLibKind::Host.instantiate().name(), "host-libm");
        assert_eq!(MathLibKind::HostVariant.instantiate().name(), "host-libm-variant");
        assert_eq!(MathLibKind::Device.instantiate().name(), "device");
        assert_eq!(MathLibKind::Fast.instantiate().name(), "fast-math");
    }
}
