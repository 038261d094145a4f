//! The compilation entry point: validation → lowering → pass pipeline →
//! an executable [`CompiledProgram`].

use serde::{Deserialize, Serialize};

use llm4fp_fpir::{validate, InputSet, Param, Precision, Program, ValidationError};

use crate::arena::Arena;
use crate::bytecode::{self, SealError, SealPlan, SealedProgram};
use crate::config::{CompilerConfig, Semantics};
use crate::interp::{ExecError, ExecResult, Interpreter, DEFAULT_FUEL};
use crate::ir::{count_in_body, OExpr, OStmt};
use crate::lower::lower_program;
use crate::passes::{optimize, rewrite, run_pipeline, stages, Stage};

/// Why a program failed to compile.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum CompileError {
    /// Static validation rejected the program (uninitialized variables,
    /// out-of-bounds accesses, oversized loops, ...). The paper counts such
    /// programs as generation failures: they never reach differential
    /// testing.
    Invalid(Vec<ValidationError>),
}

impl std::fmt::Display for CompileError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompileError::Invalid(errors) => {
                write!(f, "program rejected by validation: ")?;
                for (i, e) in errors.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{e}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for CompileError {}

/// An executable artifact: the optimized body plus the semantics it must be
/// executed under. This plays the role of the binary produced by a real
/// compiler invocation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompiledProgram {
    /// The configuration that produced this artifact.
    pub config: CompilerConfig,
    /// Program precision.
    pub precision: Precision,
    /// `compute` parameters (used to bind inputs at execution time).
    pub params: Vec<Param>,
    /// Optimized statement list.
    pub body: Vec<OStmt>,
    /// Floating-point semantics the interpreter must honour.
    pub semantics: Semantics,
}

impl CompiledProgram {
    /// Execute on one input set with the default fuel budget.
    pub fn execute(&self, inputs: &InputSet) -> Result<ExecResult, ExecError> {
        self.execute_with_fuel(inputs, DEFAULT_FUEL)
    }

    /// Execute with an explicit fuel budget (mainly for tests that exercise
    /// the runaway-loop protection).
    pub fn execute_with_fuel(&self, inputs: &InputSet, fuel: u64) -> Result<ExecResult, ExecError> {
        let interp = Interpreter::new(self.precision, &self.params, inputs, &self.semantics, fuel)?;
        interp.run(&self.body)
    }

    /// Number of fused multiply-add operations the pass pipeline introduced
    /// (used by tests and the ablation benchmarks).
    pub fn fma_count(&self) -> usize {
        count_in_body(&self.body, |e| matches!(e, OExpr::Fma { .. }))
    }

    /// Number of reciprocal operations introduced by fast-math.
    pub fn recip_count(&self) -> usize {
        count_in_body(&self.body, |e| matches!(e, OExpr::Recip { .. }))
    }

    /// Seal this artifact into register-machine bytecode for repeated
    /// execution (see [`crate::bytecode`] and [`crate::vm`]). Sealed
    /// execution is bit-identical to [`CompiledProgram::execute`]; callers
    /// that receive a [`SealError`] fall back to the interpreter. The body
    /// is lowered to an expression arena first, because the flattener
    /// reads only arenas.
    pub fn seal(&self) -> Result<SealedProgram, SealError> {
        let plan = SealPlan::new(self.precision, &self.params, &self.body)?;
        plan.flatten(&Arena::from_body(&self.body), &self.semantics)
    }
}

/// Accepted and ignored. Sealing has one mode: flatten the pass
/// pipeline's output to bytecode. The type stays so that persisted
/// campaign configs carrying a `seal_mode` field (`"Optimized"` or
/// `"Raw"`) keep decoding and resuming; both variants seal identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum SealMode {
    /// The value new configs persist.
    #[default]
    Optimized,
    /// The value older configs may carry.
    Raw,
}

/// Accepted and ignored: matrix sealing keeps no work buffers between
/// programs. Kept so callers of [`Frontend::seal_matrix_with`] compile.
#[derive(Debug, Default)]
pub struct SealScratch;

impl SealScratch {
    pub fn new() -> Self {
        SealScratch
    }
}

/// The configuration-independent front half of the virtual compiler:
/// validation and lowering, performed once per program. Specializing the
/// front end under a [`CompilerConfig`] runs only the per-configuration
/// pass pipeline, so the full evaluation matrix validates and lowers each
/// program once instead of once per configuration — the driver-side half
/// of the sealed execution hot path.
#[derive(Debug, Clone, PartialEq)]
pub struct Frontend {
    precision: Precision,
    params: Vec<Param>,
    lowered: Vec<OStmt>,
}

impl Frontend {
    /// Validate and lower a program once.
    pub fn new(program: &Program) -> Result<Frontend, CompileError> {
        let problems = validate(program);
        if !problems.is_empty() {
            return Err(CompileError::Invalid(problems));
        }
        Ok(Frontend {
            precision: program.precision,
            params: program.params.clone(),
            lowered: lower_program(program),
        })
    }

    /// Specialize the lowered program under one configuration. Equivalent
    /// to [`compile`] with the validation and lowering amortized away.
    pub fn specialize(&self, config: CompilerConfig) -> CompiledProgram {
        let semantics = config.semantics();
        let body = run_pipeline(&self.lowered, &semantics);
        CompiledProgram {
            config,
            precision: self.precision,
            params: self.params.clone(),
            body,
            semantics,
        }
    }

    /// Specialize and seal in one step, skipping the intermediate
    /// [`CompiledProgram`] (and its parameter-list clone) on the hot path.
    /// Produces bytecode identical to `self.specialize(config).seal()`.
    pub fn seal(&self, config: CompilerConfig) -> Result<SealedProgram, SealError> {
        let plan = SealPlan::new(self.precision, &self.params, &self.lowered)?;
        let semantics = config.semantics();
        plan.flatten(&optimize(&self.lowered, &semantics), &semantics)
    }

    /// Seal one program under a whole configuration matrix at once,
    /// sharing everything the configurations cannot influence:
    ///
    /// * the lowered body becomes one expression arena, and the pass
    ///   pipeline is factored into a **prefix tree** over arenas: stage
    ///   sequences that share a prefix share the arena after it, computed
    ///   once, and each branch rewrites its parent's arena without copying
    ///   it. So, e.g., all nine `O1`-`O3` configurations fold constants
    ///   exactly once;
    /// * name->slot resolution, the parameter binding plan and the
    ///   initializer pool run **once per program** (`bytecode::SealPlan`)
    ///   and land in one `Arc`-shared [`bytecode` layout] shared by every
    ///   artifact of the matrix;
    /// * configurations with *identical* stage sequences share the
    ///   flatten itself (the arenas are the same), so each further
    ///   artifact of a pipeline pays a `Vec<Instr>` copy, not a re-run.
    ///
    /// Results are per-configuration and independent: a configuration
    /// whose rewritten body no longer reads a dynamically ambiguous name
    /// may seal while its siblings refuse. Every entry is identical to
    /// what [`Frontend::seal`] produces for that configuration.
    ///
    /// [`bytecode` layout]: crate::bytecode
    pub fn seal_matrix(&self, configs: &[CompilerConfig]) -> Vec<Result<SealedProgram, SealError>> {
        let plan = match SealPlan::new(self.precision, &self.params, &self.lowered) {
            Ok(plan) => plan,
            Err(e) => return configs.iter().map(|_| Err(e.clone())).collect(),
        };
        let pipelines: Vec<(Semantics, Vec<Stage>)> = configs
            .iter()
            .map(|config| {
                let semantics = config.semantics();
                let pipeline = stages(&semantics);
                (semantics, pipeline)
            })
            .collect();
        // Distinct pipelines, in first-appearance order (identical
        // sequences produce the identical instruction stream, so one
        // flatten serves them all).
        let mut distinct: Vec<&[Stage]> = Vec::new();
        for (_, pipeline) in &pipelines {
            if !distinct.iter().any(|d| *d == &pipeline[..]) {
                distinct.push(pipeline);
            }
        }
        // Depth-first prefix-tree walk producing the flatten of every
        // distinct pipeline.
        let mut flats: Vec<(&[Stage], Flat)> = Vec::with_capacity(distinct.len());
        let lowered = Arena::from_body(&self.lowered);
        seal_prefix_group(&plan, &lowered, 0, &distinct, &mut flats);
        pipelines
            .iter()
            .map(|(semantics, pipeline)| {
                let (_, flat) = flats
                    .iter()
                    .find(|(path, _)| *path == &pipeline[..])
                    .expect("every distinct pipeline was flattened");
                flat.clone().map(|(instrs, n_regs)| plan.assemble(instrs, n_regs, semantics))
            })
            .collect()
    }

    /// [`Frontend::seal_matrix`]; the mode and scratch are accepted and
    /// ignored.
    #[deprecated(since = "0.2.0", note = "sealing has one mode; call `seal_matrix`")]
    pub fn seal_matrix_with(
        &self,
        configs: &[CompilerConfig],
        _mode: SealMode,
        _scratch: &mut SealScratch,
    ) -> Vec<Result<SealedProgram, SealError>> {
        self.seal_matrix(configs)
    }
}

/// A flatten outcome: the instruction stream and its register count.
type Flat = Result<(Vec<bytecode::Instr>, usize), SealError>;

/// Depth-first walk of the prefix tree implied by the distinct stage
/// sequences in `group` (all sharing the same first `depth` stages, whose
/// rewritten expressions are `arena`). Flattens every complete pipeline
/// in the group. Each child branch rewrites `arena` into a fresh arena of
/// its own, so a shared prefix is computed exactly once for all its
/// descendants and no branch copies its parent.
fn seal_prefix_group<'p>(
    plan: &SealPlan<'_>,
    arena: &Arena<'_>,
    depth: usize,
    group: &[&'p [Stage]],
    flats: &mut Vec<(&'p [Stage], Flat)>,
) {
    // Pipelines completed at this depth flatten against the current arena.
    for &pipeline in group {
        if pipeline.len() == depth {
            flats.push((pipeline, plan.flatten_instrs(arena)));
        }
    }
    // Partition the rest by their next stage (first-appearance order).
    let mut partitions: Vec<(Stage, Vec<&'p [Stage]>)> = Vec::new();
    for &pipeline in group {
        if pipeline.len() == depth {
            continue;
        }
        let stage = pipeline[depth];
        match partitions.iter_mut().find(|(s, _)| *s == stage) {
            Some((_, bucket)) => bucket.push(pipeline),
            None => partitions.push((stage, vec![pipeline])),
        }
    }
    for (stage, bucket) in partitions {
        seal_prefix_group(plan, &rewrite(arena, stage), depth + 1, &bucket, flats);
    }
}

/// Compile a program under one configuration.
///
/// Validation failures are reported as [`CompileError::Invalid`]; valid
/// programs always compile (the virtual compiler has no resource limits of
/// its own — execution is bounded separately by fuel).
pub fn compile(program: &Program, config: CompilerConfig) -> Result<CompiledProgram, CompileError> {
    Ok(Frontend::new(program)?.specialize(config))
}

/// Compile a program under every configuration of the full evaluation
/// matrix (3 compilers × 6 levels), returning the artifacts in matrix order.
pub fn compile_matrix(program: &Program) -> Result<Vec<CompiledProgram>, CompileError> {
    CompilerConfig::full_matrix().into_iter().map(|cfg| compile(program, cfg)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::Instr;
    use crate::config::{CompilerId, OptLevel};
    use llm4fp_fpir::{parse_compute, InputValue};

    /// Whether two instruction streams are the same bit for bit. `Instr`'s
    /// derived `PartialEq` compares `Const` values as `f64`s, which calls
    /// `0.0` and `-0.0` equal (they execute differently) and a NaN
    /// constant unequal to itself.
    fn same_instrs(a: &[Instr], b: &[Instr]) -> bool {
        a.len() == b.len()
            && a.iter().zip(b).all(|pair| match pair {
                (Instr::Const { dst: x, value: v }, Instr::Const { dst: y, value: w }) => {
                    x == y && v.to_bits() == w.to_bits()
                }
                (x, y) => x == y,
            })
    }

    #[test]
    fn instruction_streams_compare_constants_by_bits() {
        let constant = |value| [Instr::Burn, Instr::Const { dst: 0, value }];
        assert!(same_instrs(&constant(f64::NAN), &constant(f64::NAN)));
        assert!(!same_instrs(&constant(0.0), &constant(-0.0)));
        assert!(same_instrs(&constant(1.5), &constant(1.5)));
        assert!(!same_instrs(&constant(1.5), &constant(1.5)[..1]));
    }

    #[test]
    fn invalid_programs_are_rejected_with_details() {
        let program =
            parse_compute("void compute(double x) { comp = undeclared_variable + x; }").unwrap();
        match compile(&program, CompilerConfig::new(CompilerId::Gcc, OptLevel::O0)) {
            Err(CompileError::Invalid(errors)) => {
                assert!(errors.iter().any(|e| e.message.contains("undeclared_variable")));
            }
            other => panic!("expected validation failure, got {other:?}"),
        }
    }

    #[test]
    fn compile_matrix_produces_all_18_artifacts() {
        let program = parse_compute("void compute(double x) { comp = x * x + 1.0; }").unwrap();
        let artifacts = compile_matrix(&program).unwrap();
        assert_eq!(artifacts.len(), 18);
        // nvcc artifacts contract even at O0; strict artifacts never do.
        let nvcc_o0 = artifacts
            .iter()
            .find(|a| a.config == CompilerConfig::new(CompilerId::Nvcc, OptLevel::O0))
            .unwrap();
        assert_eq!(nvcc_o0.fma_count(), 1);
        for a in &artifacts {
            if a.config.level == OptLevel::O0Nofma {
                assert_eq!(a.fma_count(), 0, "{}", a.config);
            }
        }
    }

    #[test]
    fn strict_configurations_agree_with_each_other_on_pure_arithmetic() {
        // Without math calls, O0_nofma results are identical across all three
        // compilers: IEEE arithmetic is deterministic.
        let program = parse_compute(
            "void compute(double x, double y) {\n\
             comp = (x + y) * (x - y);\n\
             comp /= x * y + 1.0;\n\
             }",
        )
        .unwrap();
        let inputs =
            InputSet::new().with("x", InputValue::Fp(1.25)).with("y", InputValue::Fp(-7.5));
        let mut bits = std::collections::HashSet::new();
        for &c in &CompilerId::ALL {
            let artifact = compile(&program, CompilerConfig::new(c, OptLevel::O0Nofma)).unwrap();
            bits.insert(artifact.execute(&inputs).unwrap().bits());
        }
        assert_eq!(bits.len(), 1);
    }

    #[test]
    fn seal_matrix_matches_independent_seals_instruction_for_instruction() {
        // The last three sources are the idiom shapes whose instruction
        // counts `tests/seal_opt.rs` pins.
        let sources = [
            "void compute(double x, double y) { comp = x * y + 2.5; comp /= y - 0.5; }",
            "void compute(double *a, double s) {\n\
             double buf[3] = {1.5, -2.25};\n\
             for (int i = 0; i < 4; ++i) {\n\
               buf[i % 3] += a[i] * s + sin(a[i]) + 1.0 + 2.0;\n\
             }\n\
             if (buf[0] > 1.0) { comp = buf[0] / (s + 2.0); }\n\
             }",
            "void compute(double x) { comp = (1.5 + 2.5 + 0.25) * x + (2.0 * 3.0); }",
            "void compute(double *a) {\n\
             for (int i = 0; i < 8; ++i) { comp += a[i] * (0.5 * 0.125); }\n\
             }",
            "void compute(double *a) {\n\
             double buf[1] = {0.0};\n\
             for (int i = 0; i < 4; ++i) { buf[i % 1] += 1.0 + 1.0 + a[i]; }\n\
             comp = buf[0];\n\
             }",
        ];
        let matrix = CompilerConfig::full_matrix();
        for src in sources {
            let program = parse_compute(src).unwrap();
            let frontend = Frontend::new(&program).unwrap();
            let batch = frontend.seal_matrix(&matrix);
            for (&config, batched) in matrix.iter().zip(&batch) {
                let single = frontend.seal(config).unwrap();
                let batched = batched
                    .as_ref()
                    .unwrap_or_else(|e| panic!("matrix seal failed under {config}: {e}"));
                assert!(
                    same_instrs(&batched.instrs, &single.instrs),
                    "{config}: {:?} vs {:?}",
                    batched.instrs,
                    single.instrs
                );
                assert_eq!(batched.register_count(), single.register_count(), "{config}");
                assert_eq!(batched.instruction_count(), single.instruction_count());
            }
        }
    }

    #[test]
    fn seal_modes_round_trip_through_serde() {
        use serde::{Deserialize, Serialize};
        for (mode, name) in [(SealMode::Raw, "Raw"), (SealMode::Optimized, "Optimized")] {
            assert_eq!(mode.to_value(), serde::Value::Str(name.into()));
            assert_eq!(SealMode::from_value(&mode.to_value()).unwrap(), mode);
        }
        assert!(SealMode::from_value(&serde::Value::Str("bogus".into())).is_err());
    }

    #[test]
    fn seal_matrix_refusals_mirror_independent_seals() {
        // `t` is a loop variable in one scope and a scalar target in
        // another, so a read of `t` inside the loop is dynamically
        // ambiguous. In the first source every configuration reads it and
        // must refuse. In the second, fast-math folds `x * (t - t)` to 0,
        // so only the three `O3_fastmath` configurations drop the read and
        // seal, while their siblings refuse.
        let sources = [
            (
                "void compute(double x) {\n\
                 for (int t = 0; t < 3; ++t) { comp += x * t; }\n\
                 double t = 2.0;\n\
                 comp += t;\n\
                 }",
                false,
            ),
            (
                "void compute(double x) {\n\
                 for (int t = 0; t < 3; ++t) { comp += x * (t - t); }\n\
                 double t = 2.0;\n\
                 comp += t;\n\
                 }",
                true,
            ),
        ];
        let matrix = CompilerConfig::full_matrix();
        for (src, fastmath_seals) in sources {
            let frontend = Frontend::new(&parse_compute(src).unwrap()).unwrap();
            let batch = frontend.seal_matrix(&matrix);
            assert_eq!(batch.len(), matrix.len());
            for (&config, result) in matrix.iter().zip(&batch) {
                let single = frontend.seal(config);
                let seals = fastmath_seals && config.level == OptLevel::O3Fastmath;
                match (result, &single) {
                    (Ok(a), Ok(b)) if seals => {
                        assert!(same_instrs(&a.instrs, &b.instrs), "{config}: {a:?} vs {b:?}")
                    }
                    (Err(a), Err(b)) if !seals => {
                        assert_eq!(a, b, "{config}");
                        assert_eq!(a, &SealError::AmbiguousName("t".into()), "{config}");
                    }
                    other => panic!("expected {config} to seal: {seals}, got {other:?}"),
                }
            }
        }
    }

    #[test]
    fn seal_matrix_shares_one_layout_across_the_matrix() {
        let src = "void compute(double *a, double s) {\n\
                   double buf[2] = {0.5};\n\
                   for (int i = 0; i < 4; ++i) { comp += a[i] * s + buf[i % 2]; }\n\
                   }";
        let frontend = Frontend::new(&parse_compute(src).unwrap()).unwrap();
        let sealed: Vec<_> = frontend
            .seal_matrix(&CompilerConfig::full_matrix())
            .into_iter()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(sealed.len(), 18);
        let first = &sealed[0];
        for other in &sealed[1..] {
            assert!(
                std::sync::Arc::ptr_eq(&first.layout, &other.layout),
                "layouts are not structurally shared"
            );
        }
    }

    #[test]
    fn compiled_artifacts_are_serializable() {
        // Experiment records persist compiled artifacts; confirm the Serialize
        // and Deserialize impls exist and the artifact is cloneable/eq.
        fn assert_roundtrippable<T: serde::Serialize + serde::de::DeserializeOwned>() {}
        assert_roundtrippable::<CompiledProgram>();
        let program = parse_compute("void compute(double x) { comp = x + 1.0; }").unwrap();
        let artifact =
            compile(&program, CompilerConfig::new(CompilerId::Clang, OptLevel::O2)).unwrap();
        assert_eq!(artifact.clone(), artifact);
        assert_eq!(artifact.recip_count(), 0);
    }
}
