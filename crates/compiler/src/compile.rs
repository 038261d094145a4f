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
        let (plan, arena) = SealPlan::new(self.precision, &self.params, &self.body)?;
        plan.flatten(&arena, &self.semantics)
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
        let (plan, lowered) = SealPlan::new(self.precision, &self.params, &self.lowered)?;
        let semantics = config.semantics();
        plan.flatten(&optimize(lowered, &semantics), &semantics)
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
        let (plan, lowered) = match SealPlan::new(self.precision, &self.params, &self.lowered) {
            Ok(planned) => planned,
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
        // Distinct pipelines (identical sequences produce the identical
        // instruction stream, so one flatten serves them all), sorted so
        // that the pipelines sharing a prefix are contiguous.
        let mut distinct: Vec<&[Stage]> = pipelines.iter().map(|(_, p)| &p[..]).collect();
        distinct.sort_unstable();
        distinct.dedup();
        // Depth-first prefix-tree walk producing the flatten of every
        // distinct pipeline.
        let mut flats: Vec<(&[Stage], Flat)> = Vec::with_capacity(distinct.len());
        seal_prefix_group(&plan, &lowered, 0, &distinct, &mut flats, &mut Vec::new());
        let which: Vec<usize> = pipelines
            .iter()
            .map(|(_, pipeline)| flats.iter().position(|(path, _)| *path == &pipeline[..]))
            .map(|found| found.expect("every distinct pipeline was flattened"))
            .collect();
        let mut flats: Vec<Option<Flat>> = flats.into_iter().map(|(_, flat)| Some(flat)).collect();
        pipelines
            .iter()
            .zip(&which)
            .enumerate()
            .map(|(k, ((semantics, _), &f))| {
                // A pipeline's last configuration takes its stream; the
                // others copy it.
                let flat =
                    if which[k + 1..].contains(&f) { flats[f].clone() } else { flats[f].take() };
                let flat = flat.expect("a stream is taken by its pipeline's last configuration");
                flat.map(|stream| plan.assemble(stream, semantics))
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

/// A flatten outcome.
type Flat = Result<bytecode::Stream, SealError>;

/// Depth-first walk of the prefix tree implied by the distinct, sorted
/// stage sequences in `group` (all sharing the same first `depth` stages,
/// whose rewritten expressions are `arena`). Flattens every complete
/// pipeline in the group. Each child branch rewrites `arena` into an arena
/// of its own, so a shared prefix is computed exactly once for all its
/// descendants and no branch copies its parent. A finished branch's arena
/// goes to `spare`, whose buffers the next rewrite reuses.
fn seal_prefix_group<'p, 's>(
    plan: &SealPlan,
    arena: &Arena<'s>,
    depth: usize,
    group: &[&'p [Stage]],
    flats: &mut Vec<(&'p [Stage], Flat)>,
    spare: &mut Vec<Arena<'s>>,
) {
    // A pipeline completed at this depth sorts first, and flattens against
    // the current arena.
    let mut rest = group;
    if let Some((&done, tail)) = rest.split_first().filter(|(p, _)| p.len() == depth) {
        flats.push((done, plan.flatten_instrs(arena)));
        rest = tail;
    }
    // The rest come in runs that share their next stage.
    while let Some(first) = rest.first() {
        let stage = first[depth];
        let (bucket, tail) = rest.split_at(rest.iter().take_while(|p| p[depth] == stage).count());
        let out = spare.pop().unwrap_or_else(|| Arena::sized_like(arena));
        let child = rewrite(arena, stage, out);
        seal_prefix_group(plan, &child, depth + 1, bucket, flats, spare);
        spare.push(child);
        rest = tail;
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
    use crate::bytecode::{same_instrs, Instr};
    use crate::config::{CompilerId, OptLevel};
    use llm4fp_fpir::{parse_compute, InputValue};

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
    fn artifacts_run_identically_only_when_execution_cannot_tell_them_apart() {
        let matrix = CompilerConfig::full_matrix();
        let seal = |src: &str| -> Vec<SealedProgram> {
            let frontend = Frontend::new(&parse_compute(src).unwrap()).unwrap();
            frontend.seal_matrix(&matrix).into_iter().map(|r| r.unwrap()).collect()
        };
        let strict: Vec<usize> = CompilerId::ALL
            .iter()
            .map(|&c| matrix.iter().position(|x| *x == CompilerConfig::new(c, OptLevel::O0Nofma)))
            .map(Option::unwrap)
            .collect();
        // Call-free: one stream, and no math library to tell the three
        // strict configurations apart.
        let plain = seal("void compute(double x, double y) { comp = x * y + 2.5; comp /= y; }");
        for &k in &strict {
            assert!(plain[strict[0]].runs_identically(&plain[k]), "{}", matrix[k]);
        }
        // A `sin` call: the same stream, but each compiler links its own
        // math library.
        let calls = seal("void compute(double x) { comp = sin(x) * 2.0 + x; }");
        for (i, &a) in strict.iter().enumerate() {
            for &b in &strict[i + 1..] {
                assert!(same_instrs(&calls[a].instrs, &calls[b].instrs));
                assert!(!calls[a].runs_identically(&calls[b]), "{} {}", matrix[a], matrix[b]);
            }
        }
        // Only fast-math flushes subnormals, so a fast-math artifact never
        // runs like another level's, even when their streams are the same.
        let copy = seal("void compute(double x) { comp = x; }");
        for artifacts in [&plain, &calls, &copy] {
            for (a, ca) in artifacts.iter().zip(&matrix) {
                for (b, cb) in artifacts.iter().zip(&matrix) {
                    let fast = [ca, cb].map(|c| c.level == OptLevel::O3Fastmath);
                    if fast[0] != fast[1] {
                        assert!(!a.runs_identically(b), "{ca} {cb}");
                    }
                }
            }
        }
        assert!(same_instrs(&copy[0].instrs, &copy[5].instrs), "{} {}", matrix[0], matrix[5]);
        // Artifacts of two seals never share a plan, so never compare equal.
        let again = seal("void compute(double x) { comp = x; }");
        assert!(!copy[0].runs_identically(&again[0]));
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
