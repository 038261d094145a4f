//! Golden tests of the sealed bytecode stream: idiom-shaped programs seal
//! to pinned instruction counts, and the sealed stream computes the same
//! bits in the same number of steps as the tree-walking reference.

use llm4fp_suite::compiler::{compile, CompilerConfig, CompilerId, OptLevel};
use llm4fp_suite::fpir::{parse_compute, InputSet, InputValue};

/// Golden instruction counts on idiom programs: hand-pinned counts for
/// shapes the generator emits constantly. The pins are exact so any
/// flattener change (or an accidental semantic widening) shows up as a
/// count change, not a silent perf loss.
#[test]
fn idiom_programs_shrink_by_pinned_amounts() {
    // (source, sealed count) under gcc@O0_nofma, the configuration whose
    // pass pipeline rewrites nothing, so the counts are the flattener's.
    let golden = [
        // Horner step with literal coefficients.
        ("void compute(double x) { comp = (1.5 + 2.5 + 0.25) * x + (2.0 * 3.0); }", 14usize),
        // Scaled accumulation in a loop.
        (
            "void compute(double *a) {\n\
             for (int i = 0; i < 8; ++i) { comp += a[i] * (0.5 * 0.125); }\n\
             }",
            16,
        ),
        // Buffer rotation with a degenerate modulus.
        (
            "void compute(double *a) {\n\
             double buf[1] = {0.0};\n\
             for (int i = 0; i < 4; ++i) { buf[i % 1] += 1.0 + 1.0 + a[i]; }\n\
             comp = buf[0];\n\
             }",
            21,
        ),
    ];
    let strict = CompilerConfig::new(CompilerId::Gcc, OptLevel::O0Nofma);
    let inputs = InputSet::new()
        .with("x", InputValue::Fp(1.375))
        .with("a", InputValue::FpArray(vec![1.0, -2.0, 3.0, -4.0, 5.5, 0.25, 7.0, 8.125]));
    for (src, expected) in golden {
        let program = parse_compute(src).unwrap();
        let artifact = compile(&program, strict).unwrap();
        let sealed = artifact.seal().unwrap();
        assert_eq!(sealed.instruction_count(), expected, "stream drifted for:\n{src}");
        let vm = sealed.execute(&inputs).unwrap();
        let reference = artifact.execute(&inputs).unwrap();
        assert_eq!(vm.bits(), reference.bits(), "{src}");
        assert_eq!(vm.steps, reference.steps, "{src}");
    }
}
