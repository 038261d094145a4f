//! Corpus and golden tests of the seal-time bytecode optimizer
//! (`compiler::peephole`): optimized instruction streams never exceed the
//! raw streams on a whole Varity corpus × the full configuration matrix,
//! idiom-shaped programs shrink by pinned amounts, and the sealed-matrix
//! driver keeps its results bit-identical whichever mode seals.

use llm4fp_suite::compiler::{compile, CompilerConfig, CompilerId, Frontend, OptLevel, SealMode};
use llm4fp_suite::fpir::{parse_compute, InputSet, InputValue};
use llm4fp_suite::generator::{InputGenerator, VarityGenerator};

/// Corpus pin: across 64 Varity programs and all 18 configurations the
/// optimizer never grows an instruction stream or a register file, and it
/// shrinks a substantial share of them (constant folding reaches `O0`
/// streams the tree-level pipeline leaves untouched).
#[test]
fn optimized_instruction_counts_never_exceed_raw_on_a_varity_corpus() {
    let matrix = CompilerConfig::full_matrix();
    let mut sealed_pairs = 0usize;
    let mut shrunk = 0usize;
    let mut instrs_raw = 0usize;
    let mut instrs_opt = 0usize;
    for seed in 0..64u64 {
        let program = VarityGenerator::new(seed * 13 + 5).generate();
        let frontend = Frontend::new(&program).expect("varity programs validate");
        let raw = frontend.seal_matrix_with(
            &matrix,
            SealMode::Raw,
            &mut llm4fp_suite::compiler::SealScratch::new(),
        );
        let optimized = frontend.seal_matrix(&matrix);
        for ((&config, raw), optimized) in matrix.iter().zip(&raw).zip(&optimized) {
            let (raw, optimized) = match (raw, optimized) {
                (Ok(r), Ok(o)) => (r, o),
                (Err(a), Err(b)) => {
                    assert_eq!(a, b, "{config}: refusals must not depend on the mode");
                    continue;
                }
                other => panic!("{config}: modes disagree about sealability: {other:?}"),
            };
            sealed_pairs += 1;
            assert!(
                optimized.instruction_count() <= raw.instruction_count(),
                "{config} seed {seed}: optimizer grew the stream ({} > {})",
                optimized.instruction_count(),
                raw.instruction_count()
            );
            assert!(
                optimized.register_count() <= raw.register_count(),
                "{config} seed {seed}: optimizer grew the register file"
            );
            if optimized.instruction_count() < raw.instruction_count() {
                shrunk += 1;
            }
            instrs_raw += raw.instruction_count();
            instrs_opt += optimized.instruction_count();
        }
    }
    assert!(sealed_pairs > 1000, "corpus unexpectedly small: {sealed_pairs}");
    assert!(shrunk * 4 >= sealed_pairs, "optimizer shrank only {shrunk}/{sealed_pairs} streams");
    assert!(
        instrs_opt < instrs_raw,
        "corpus-wide instruction total did not shrink ({instrs_opt} vs {instrs_raw})"
    );
}

/// Golden shrinkage on idiom programs: hand-pinned instruction counts for
/// shapes the generator emits constantly. The pins are exact so any
/// regression in a pass (or an accidental semantic widening) shows up as
/// a count change, not a silent perf loss.
#[test]
fn idiom_programs_shrink_by_pinned_amounts() {
    let strict = CompilerConfig::new(CompilerId::Gcc, OptLevel::O0Nofma);
    // (source, raw count, optimized count) under gcc@O0_nofma — the
    // configuration whose tree pipeline does nothing, so every win below
    // is the bytecode optimizer's alone.
    let golden = [
        // Horner-step idiom with literal coefficients: the coefficient
        // chain folds; the `x`-dependent ops stay.
        (
            "void compute(double x) { comp = (1.5 + 2.5 + 0.25) * x + (2.0 * 3.0); }",
            14usize,
            8usize,
        ),
        // Scaled accumulation in a loop: loop structure (burns, jumps,
        // int slots) is untouched; the invariant constant product folds.
        (
            "void compute(double *a) {\n\
             for (int i = 0; i < 8; ++i) { comp += a[i] * (0.5 * 0.125); }\n\
             }",
            16,
            14,
        ),
        // Buffer rotation with a degenerate modulus: `i % 1` folds to a
        // constant index, and the seeded constant prefix folds away.
        (
            "void compute(double *a) {\n\
             double buf[1] = {0.0};\n\
             for (int i = 0; i < 4; ++i) { buf[i % 1] += 1.0 + 1.0 + a[i]; }\n\
             comp = buf[0];\n\
             }",
            21,
            19,
        ),
    ];
    for (src, raw_expected, optimized_expected) in golden {
        let program = parse_compute(src).unwrap();
        let artifact = compile(&program, strict).unwrap();
        let raw = artifact.seal_with(SealMode::Raw).unwrap();
        let optimized = artifact.seal_with(SealMode::Optimized).unwrap();
        assert_eq!(raw.instruction_count(), raw_expected, "raw stream drifted for:\n{src}");
        assert_eq!(
            optimized.instruction_count(),
            optimized_expected,
            "optimized stream drifted for:\n{src}"
        );
        // And the shrunk stream still computes the identical bits.
        let inputs = InputSet::new()
            .with("x", InputValue::Fp(1.375))
            .with("a", InputValue::FpArray(vec![1.0, -2.0, 3.0, -4.0, 5.5, 0.25, 7.0, 8.125]));
        let a = raw.execute(&inputs).unwrap();
        let b = optimized.execute(&inputs).unwrap();
        assert_eq!(a.bits(), b.bits());
        assert_eq!(a.steps, b.steps);
        assert_eq!(artifact.execute(&inputs).unwrap().bits(), b.bits());
    }
}

/// The matrix driver produces identical `ProgramDiffResult`s under both
/// seal modes on generated programs (campaign-shaped A/B of the knob the
/// experiment binaries expose as `--no-seal-opt`). Outcomes are compared
/// bit-wise rather than by `==` because NaN results compare unequal to
/// themselves through `Outcome`'s `f64` field.
#[test]
fn difftester_results_are_mode_independent_on_generated_programs() {
    use llm4fp_suite::difftest::DiffTester;
    for seed in 0..12u64 {
        let program = VarityGenerator::new(seed ^ 0x5ea1).generate();
        let inputs = InputGenerator::new(seed).generate(&program);
        let optimized = DiffTester::new().run(&program, &inputs);
        let raw = DiffTester::new().with_seal_mode(SealMode::Raw).run(&program, &inputs);
        assert_eq!(optimized.program_id, raw.program_id);
        assert_eq!(optimized.records.len(), raw.records.len(), "seed {seed}");
        for (a, b) in optimized.records.iter().zip(&raw.records) {
            assert_eq!((a.level, a.pair), (b.level, b.pair));
            assert_eq!((a.bits_a, a.bits_b), (b.bits_a, b.bits_b), "seed {seed}");
            assert_eq!(a.digit_diff, b.digit_diff);
        }
        assert_eq!(optimized.comparisons_performed, raw.comparisons_performed);
        assert_eq!(optimized.outcomes.len(), raw.outcomes.len());
        for (a, b) in optimized.outcomes.iter().zip(&raw.outcomes) {
            assert_eq!(a.config, b.config);
            assert_eq!(a.outcome.bits(), b.outcome.bits(), "seed {seed} {}", a.config);
            assert_eq!(a.outcome.is_ok(), b.outcome.is_ok());
        }
    }
}
