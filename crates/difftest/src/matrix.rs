//! The compilation driver and execution matrix.
//!
//! Each program is tested against **one** input set, as in the paper:
//! [`DiffTester::run`] gives every configuration of the matrix one
//! [`Outcome`] and compares every compiler pair at every level. Callers
//! that already hold the program's structural hash and front end (the
//! campaign runner) pass both to [`DiffTester::run_hashed`]; `run` and
//! `run_with` compute the hash and leave the front end to the virtual
//! path.
//!
//! The driver is backend-pluggable ([`ExecBackend`]): the virtual path
//! below is the evaluation default, and [`ExecBackend::External`] swaps
//! in a real host toolchain (one compiler spawn and one binary spawn per
//! configuration, every failure recorded as an outcome) while reusing the
//! same comparison code. Both return one [`Outcome`] per configuration.
//!
//! The virtual path builds and runs each **distinct artifact** once.
//! Configurations with equal [`Semantics`] compile to the same artifact
//! (the 18 of Table 1 fall into 10 such classes), so it seals one
//! representative per class, in one call ([`Frontend::seal_matrix`]:
//! prefix-shared pass pipelines, one name→slot layout per program).
//! Classes whose artifacts execute identically
//! ([`SealedProgram::runs_identically`]: the same instruction stream,
//! registers and flush mode, and the same math library unless the program
//! calls none) share one execution. Every configuration then takes its
//! artifact's [`Outcome`], so the results equal those of executing all 18
//! artifacts. Execution runs on the register VM, reusing one
//! [`ExecScratch`] (through [`MatrixScratch`], across *programs* in a
//! worker loop) so it is allocation-free. Sealed execution is
//! bit-identical to the reference tree-walking interpreter:
//! [`ExecEngine::Reference`] selects it for A/B benchmarking (specialized
//! once per class), and the virtual path falls back to it for the rare
//! classes that refuse to seal. The external backend still compiles and
//! runs all 18 configurations: a real toolchain's artifacts are not known
//! to agree.
//! The matrix runs on the caller's thread: parallelism comes from the
//! orchestrator's shards, and one program's execution is far too short to
//! pay for a thread fan-out.
//!
//! [`SealedProgram::runs_identically`]: llm4fp_compiler::SealedProgram::runs_identically

use std::sync::Arc;

use serde::{Deserialize, Serialize};

use llm4fp_compiler::interp::DEFAULT_FUEL;
use llm4fp_compiler::{
    CompilerConfig, CompilerId, ExecError, ExecResult, ExecScratch, Frontend, OptLevel, SealMode,
    SealedProgram, Semantics,
};
use llm4fp_extcc::HostToolchain;
use llm4fp_fpir::{hash_id, program_hash, InputSet, Precision, Program};
use llm4fp_telemetry::{keys, Telemetry};

use crate::backend::ExecBackend;
use crate::compare::{classify, digit_difference, DiffRecord};

/// Outcome of building + running one configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Outcome {
    /// The artifact compiled and executed; these are the printed bits.
    Ok { value: f64, bits: u64 },
    /// The virtual compiler rejected the program.
    CompileFail { reason: String },
    /// The artifact compiled but execution failed (fuel, runtime error).
    ExecFail { reason: String },
}

impl Outcome {
    /// The executed value, if the configuration produced one.
    pub fn value(&self) -> Option<f64> {
        match self {
            Outcome::Ok { value, .. } => Some(*value),
            _ => None,
        }
    }

    pub fn bits(&self) -> Option<u64> {
        match self {
            Outcome::Ok { bits, .. } => Some(*bits),
            _ => None,
        }
    }

    pub fn is_ok(&self) -> bool {
        matches!(self, Outcome::Ok { .. })
    }
}

/// The outcome of one configuration of the matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConfigOutcome {
    pub config: CompilerConfig,
    pub outcome: Outcome,
}

/// Everything the differential tester learned about one program.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramDiffResult {
    /// Structural identifier of the program.
    pub program_id: String,
    /// Per-configuration outcomes, in matrix order.
    pub outcomes: Vec<ConfigOutcome>,
    /// All pairwise same-level inconsistencies found.
    pub records: Vec<DiffRecord>,
    /// Number of pairwise comparisons actually performed (both sides ran).
    pub comparisons_performed: usize,
}

impl ProgramDiffResult {
    /// True when at least one inconsistency was found — the program then
    /// joins the "successful" set used by Feedback-Based Mutation.
    pub fn triggered_inconsistency(&self) -> bool {
        !self.records.is_empty()
    }

    /// The outcome of a specific configuration.
    pub fn outcome_of(&self, config: CompilerConfig) -> Option<&Outcome> {
        self.outcomes.iter().find(|o| o.config == config).map(|o| &o.outcome)
    }

    /// Number of configurations that compiled and executed successfully.
    pub fn ok_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.outcome.is_ok()).count()
    }
}

/// Which execution back end the tester drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum ExecEngine {
    /// Seal each specialized artifact into bytecode and run it on the
    /// register VM (the fast path; bit-identical to the reference).
    #[default]
    Sealed,
    /// Execute with the reference tree-walking interpreter (the slow
    /// path, kept as the semantic authority and for A/B benchmarks).
    Reference,
}

/// The differential tester: one configuration matrix, run against one
/// input set per program.
#[derive(Debug, Clone)]
pub struct DiffTester {
    /// Compilers under test (defaults to gcc, clang, nvcc).
    pub compilers: Vec<CompilerId>,
    /// Optimization levels under test (defaults to the six of Table 1).
    pub levels: Vec<OptLevel>,
    /// Execution backend (defaults to the virtual compiler on the sealed
    /// register VM).
    pub backend: ExecBackend,
    /// Accepted and ignored: sealing has one mode. Kept for source
    /// compatibility.
    pub seal_mode: SealMode,
    /// Telemetry handle (disabled by default — every recording call is a
    /// single branch). Pure observation: results are bit-identical with
    /// telemetry on or off, and compute-level counters are keyed by the
    /// program hash so racy duplicate computations collapse on merge.
    pub telemetry: Telemetry,
}

impl Default for DiffTester {
    fn default() -> Self {
        DiffTester {
            compilers: CompilerId::ALL.to_vec(),
            levels: OptLevel::ALL.to_vec(),
            backend: ExecBackend::Virtual(ExecEngine::Sealed),
            seal_mode: SealMode::Optimized,
            telemetry: Telemetry::disabled(),
        }
    }
}

/// Reusable execution state for one virtual-matrix worker loop: the VM's
/// [`ExecScratch`]. Threading one `MatrixScratch` across programs — as
/// the campaign runner does per shard — keeps execution allocation-free
/// after the first program.
#[derive(Debug, Default)]
pub struct MatrixScratch {
    exec: ExecScratch,
}

impl MatrixScratch {
    pub fn new() -> Self {
        Self::default()
    }

    /// Largest VM register file any program prepared against this
    /// scratch (reported in the orchestrator's `summary.json`).
    pub fn peak_regs(&self) -> usize {
        self.exec.peak_regs()
    }
}

impl DiffTester {
    pub fn new() -> Self {
        Self::default()
    }

    /// Restrict or reorder the configuration matrix.
    pub fn with_matrix(compilers: Vec<CompilerId>, levels: Vec<OptLevel>) -> Self {
        DiffTester { compilers, levels, ..DiffTester::default() }
    }

    /// No-op, kept for source compatibility: the matrix always runs on
    /// the caller's thread.
    #[deprecated(since = "0.2.0", note = "the matrix runs on the caller's thread; drop the call")]
    pub fn with_threads(self, _threads: usize) -> Self {
        self
    }

    /// Select the virtual execution engine (sealed VM or reference
    /// interpreter). Shorthand for a [`ExecBackend::Virtual`] backend.
    pub fn with_engine(mut self, engine: ExecEngine) -> Self {
        self.backend = ExecBackend::Virtual(engine);
        self
    }

    /// Select the execution backend (virtual compiler or external real
    /// toolchain).
    pub fn with_backend(mut self, backend: ExecBackend) -> Self {
        self.backend = backend;
        self
    }

    /// Accepted and ignored: sealing has one mode.
    #[deprecated(since = "0.2.0", note = "sealing has one mode; drop the call")]
    pub fn with_seal_mode(mut self, mode: SealMode) -> Self {
        self.seal_mode = mode;
        self
    }

    /// Record seal/execute spans and compute-level counters through
    /// `telemetry` (campaigns pass their shard lane's handle).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }

    /// Stable identity of the configured backend (see
    /// [`ExecBackend::fingerprint`]) — what backend-aware result-cache
    /// keys are scoped by.
    pub fn backend_fingerprint(&self) -> String {
        self.backend.fingerprint()
    }

    /// All configurations of this tester's matrix, compiler-major.
    pub fn configurations(&self) -> Vec<CompilerConfig> {
        let mut out = Vec::with_capacity(self.compilers.len() * self.levels.len());
        for &c in &self.compilers {
            for &l in &self.levels {
                out.push(CompilerConfig::new(c, l));
            }
        }
        out
    }

    /// Compiler pairs compared at each level (host-host first, then
    /// host-device, matching Table 4's column order).
    pub fn compiler_pairs(&self) -> Vec<(CompilerId, CompilerId)> {
        let mut pairs = Vec::new();
        for (i, &a) in self.compilers.iter().enumerate() {
            for &b in self.compilers.iter().skip(i + 1) {
                pairs.push((a, b));
            }
        }
        pairs
    }

    /// Total number of pairwise comparisons per program:
    /// `(C choose 2) × O` — the denominator of the paper's inconsistency
    /// rate once multiplied by the number of programs.
    pub fn comparisons_per_program(&self) -> usize {
        let c = self.compilers.len();
        c * (c - 1) / 2 * self.levels.len()
    }

    /// Compile and execute the full matrix for one program against one
    /// input set, then compare every compiler pair at every level.
    pub fn run(&self, program: &Program, inputs: &InputSet) -> ProgramDiffResult {
        self.run_with(program, inputs, &mut MatrixScratch::new())
    }

    /// [`DiffTester::run`] reusing a caller-held [`MatrixScratch`]
    /// (allocation-free across programs after the first).
    pub fn run_with(
        &self,
        program: &Program,
        inputs: &InputSet,
        scratch: &mut MatrixScratch,
    ) -> ProgramDiffResult {
        self.run_hashed(program, None, program_hash(program), inputs, scratch)
    }

    /// [`DiffTester::run_with`] for a caller that already holds the
    /// program's structural hash, which must equal
    /// [`llm4fp_fpir::program_hash`]`(program)`, and possibly its front
    /// end, which must then be [`Frontend::new`]`(program)`. The virtual
    /// backend builds the front end when it is not given, and gives every
    /// configuration the same `CompileFail` when the program does not
    /// validate; the external backend reads only the program. The hash
    /// becomes [`ProgramDiffResult::program_id`] and keys the
    /// compute-level telemetry counters. The campaign runner builds both
    /// once per program (the front end is its validity check) and passes
    /// them here.
    pub fn run_hashed(
        &self,
        program: &Program,
        frontend: Option<&Frontend>,
        hash: u64,
        inputs: &InputSet,
        scratch: &mut MatrixScratch,
    ) -> ProgramDiffResult {
        debug_assert!(
            frontend.map_or(true, |given| Frontend::new(program).as_ref() == Ok(given)),
            "the front end of another program"
        );
        let configs = self.configurations();
        let outcomes = match &self.backend {
            ExecBackend::Virtual(engine) => {
                let built;
                let frontend = match frontend {
                    Some(frontend) => Ok(frontend),
                    None => {
                        built = Frontend::new(program);
                        built.as_ref()
                    }
                };
                match frontend {
                    Ok(frontend) => {
                        self.run_virtual(frontend, hash, inputs, &configs, *engine, scratch)
                    }
                    // Validation failure: the whole matrix fails to compile
                    // with the same reason.
                    Err(e) => vec![Outcome::CompileFail { reason: e.to_string() }; configs.len()],
                }
            }
            ExecBackend::External(toolchain) => {
                self.run_external(toolchain, program, hash, inputs, &configs)
            }
        };
        let outcomes: Vec<ConfigOutcome> = configs
            .into_iter()
            .zip(outcomes)
            .map(|(config, outcome)| ConfigOutcome { config, outcome })
            .collect();
        let (records, comparisons_performed) = self.compare_all(program.precision, &outcomes);
        ProgramDiffResult { program_id: hash_id(hash), outcomes, records, comparisons_performed }
    }

    /// External path: one scratch session per program, one compiler spawn
    /// and one binary spawn per configuration, in configuration order. All
    /// external failures land as `CompileFail`/`ExecFail` outcomes.
    /// Process-level parallelism comes from the orchestrator's shards:
    /// at most one spawn per worker at a time.
    fn run_external(
        &self,
        toolchain: &Arc<HostToolchain>,
        program: &Program,
        hash: u64,
        inputs: &InputSet,
        configs: &[CompilerConfig],
    ) -> Vec<Outcome> {
        let telemetry = &self.telemetry;
        // Process-spawn and failure-taxonomy totals accumulate locally and
        // land as one keyed contribution per program: however many lanes
        // race to recompute this program, the merged report counts it once.
        let mut compiles = 0u64;
        let mut runs = 0u64;
        let mut errors: std::collections::BTreeMap<&'static str, u64> =
            std::collections::BTreeMap::new();
        let mut record_error = |e: &llm4fp_extcc::ExtError| {
            *errors.entry(e.taxonomy()).or_insert(0) += 1;
        };
        let outcomes = match toolchain.session() {
            Err(e) => {
                record_error(&e);
                vec![Outcome::CompileFail { reason: e.to_string() }; configs.len()]
            }
            Ok(mut session) => configs
                .iter()
                .map(|&config| {
                    let artifact = match session.compile(program, config) {
                        Ok(artifact) => artifact,
                        Err(e) => {
                            record_error(&e);
                            return Outcome::CompileFail { reason: e.to_string() };
                        }
                    };
                    compiles += 1;
                    telemetry.observe(keys::EXTCC_COMPILE_TIME, artifact.compile_time);
                    match session.run_inputs(&artifact, program, inputs) {
                        Ok(r) => {
                            runs += 1;
                            telemetry.observe(keys::EXTCC_RUN_TIME, r.run_time);
                            Outcome::Ok { value: r.value, bits: r.bits }
                        }
                        Err(e) => {
                            record_error(&e);
                            Outcome::ExecFail { reason: e.to_string() }
                        }
                    }
                })
                .collect(),
        };
        if telemetry.is_enabled() {
            if compiles > 0 {
                telemetry.add_keyed(keys::EXTCC_COMPILES, hash, compiles);
            }
            if runs > 0 {
                telemetry.add_keyed(keys::EXTCC_RUNS, hash, runs);
            }
            for (taxonomy, n) in errors {
                telemetry.add_keyed(&format!("{}{taxonomy}", keys::EXTCC_ERR_PREFIX), hash, n);
            }
        }
        outcomes
    }

    /// Virtual path: one artifact per distinct execution. Sealing,
    /// execution and [`Frontend::specialize`] read a configuration only
    /// through its [`Semantics`], so configurations are grouped by
    /// [`CompilerConfig::semantics`] in first-appearance order, and one
    /// representative per class seals through
    /// [`Frontend::seal_matrix`] (the pass pipeline is prefix-shared and
    /// name→slot layout runs once per program). Each class whose artifact
    /// [`SealedProgram::runs_identically`] to an earlier class's takes that
    /// class's outcome; every other class executes the input set once, on
    /// the reused [`ExecScratch`]. A class that refuses to seal runs its
    /// representative's specialized body on the reference interpreter, as
    /// does every class on [`ExecEngine::Reference`]. Every configuration
    /// returns its class's outcome, in configuration order. Seal refusals
    /// and interpreter fallbacks still count per configuration.
    ///
    /// [`SealedProgram::runs_identically`]: llm4fp_compiler::SealedProgram::runs_identically
    fn run_virtual(
        &self,
        frontend: &Frontend,
        hash: u64,
        inputs: &InputSet,
        configs: &[CompilerConfig],
        engine: ExecEngine,
        scratch: &mut MatrixScratch,
    ) -> Vec<Outcome> {
        let mut semantics: Vec<Semantics> = Vec::with_capacity(configs.len());
        let mut reps: Vec<CompilerConfig> = Vec::with_capacity(configs.len());
        let class_of: Vec<usize> = configs
            .iter()
            .map(|&config| {
                let sem = config.semantics();
                semantics.iter().position(|&s| s == sem).unwrap_or_else(|| {
                    semantics.push(sem);
                    reps.push(config);
                    reps.len() - 1
                })
            })
            .collect();
        let telemetry = &self.telemetry;
        // The sealed artifact of each class (None on the reference
        // engine, which specializes each class below).
        let sealed = match engine {
            ExecEngine::Sealed => {
                let _span = telemetry.span(keys::SPAN_SEAL);
                Some(frontend.seal_matrix(&reps))
            }
            ExecEngine::Reference => None,
        };
        if let (true, Some(sealed)) = (telemetry.is_enabled(), &sealed) {
            let refused = class_of.iter().filter(|&&k| sealed[k].is_err()).count() as u64;
            if refused > 0 {
                // One refused program; `refused` configurations fall back
                // to the reference interpreter.
                telemetry.add_keyed(keys::SEAL_REFUSALS, hash, 1);
                telemetry.add_keyed(keys::INTERPRETER_FALLBACKS, hash, refused);
            }
        }
        let _span = telemetry.span(keys::SPAN_EXECUTE);
        // The sealed classes that executed: the only ones a later class
        // can share an execution with.
        let mut executed: Vec<(usize, &SealedProgram)> = Vec::with_capacity(reps.len());
        let mut outcomes: Vec<Outcome> = Vec::with_capacity(reps.len());
        for (k, &rep) in reps.iter().enumerate() {
            let outcome = match sealed.as_ref().map(|sealed| &sealed[k]) {
                Some(Ok(artifact)) => {
                    match executed.iter().find(|(_, earlier)| earlier.runs_identically(artifact)) {
                        Some(&(j, _)) => outcomes[j].clone(),
                        None => {
                            executed.push((k, artifact));
                            let result =
                                artifact.execute_into(inputs, DEFAULT_FUEL, &mut scratch.exec);
                            outcome_of(result)
                        }
                    }
                }
                Some(Err(_)) | None => outcome_of(frontend.specialize(rep).execute(inputs)),
            };
            outcomes.push(outcome);
        }
        class_of.into_iter().map(|k| outcomes[k].clone()).collect()
    }

    /// Compare every compiler pair at every level, returning the
    /// inconsistency records and the number of comparisons performed
    /// (both sides executed). `outcomes` is in [`Self::configurations`]
    /// order, so compiler `c` at level `l` sits at `c * levels + l`.
    fn compare_all(
        &self,
        precision: Precision,
        outcomes: &[ConfigOutcome],
    ) -> (Vec<DiffRecord>, usize) {
        let levels = self.levels.len();
        let mut records = Vec::new();
        let mut performed = 0;
        for (i, &a) in self.compilers.iter().enumerate() {
            for (j, &b) in self.compilers.iter().enumerate().skip(i + 1) {
                for (l, &level) in self.levels.iter().enumerate() {
                    let (
                        Outcome::Ok { value: va, bits: ba, .. },
                        Outcome::Ok { value: vb, bits: bb, .. },
                    ) = (&outcomes[i * levels + l].outcome, &outcomes[j * levels + l].outcome)
                    else {
                        continue;
                    };
                    performed += 1;
                    if ba != bb {
                        records.push(DiffRecord {
                            level,
                            pair: (a, b),
                            value_a: *va,
                            value_b: *vb,
                            bits_a: *ba,
                            bits_b: *bb,
                            class_a: classify(*va),
                            class_b: classify(*vb),
                            digit_diff: digit_difference(*ba, *bb, precision),
                        });
                    }
                }
            }
        }
        (records, performed)
    }

    /// RQ4-style comparison: within each compiler, compare every level
    /// against `O0_nofma`. Returns `(compiler, level, differs)` tuples for
    /// levels other than the baseline where both sides executed.
    /// `outcomes` is in [`Self::configurations`] order (as
    /// [`ProgramDiffResult::outcomes`] is), so compiler `c` at level `l`
    /// sits at `c * levels + l`.
    pub fn compare_vs_baseline(
        &self,
        outcomes: &[ConfigOutcome],
    ) -> Vec<(CompilerId, OptLevel, bool)> {
        let levels = self.levels.len();
        debug_assert_eq!(outcomes.len(), self.compilers.len() * levels, "not this matrix");
        let Some(base) = self.levels.iter().position(|&l| l == OptLevel::O0Nofma) else {
            return Vec::new();
        };
        let mut results = Vec::new();
        for (c, &compiler) in self.compilers.iter().enumerate() {
            let row = &outcomes[c * levels..(c + 1) * levels];
            let Some(base_bits) = row[base].outcome.bits() else { continue };
            for (l, &level) in self.levels.iter().enumerate() {
                if l == base {
                    continue;
                }
                if let Some(bits) = row[l].outcome.bits() {
                    results.push((compiler, level, bits != base_bits));
                }
            }
        }
        results
    }
}

/// Record the campaign-level counters for one program's diff result:
/// programs, comparisons, total and per-config-pair discrepancy counts.
/// Callers invoke this *post-cache* (on the result a program actually
/// contributes, computed or replayed), which is what makes these plain
/// counters deterministic — unlike compute-level work, which is keyed.
pub fn record_outcome_metrics(telemetry: &Telemetry, result: &ProgramDiffResult) {
    if !telemetry.is_enabled() {
        return;
    }
    telemetry.add(keys::PROGRAMS, 1);
    telemetry.add(keys::COMPARISONS, result.comparisons_performed as u64);
    if !result.records.is_empty() {
        telemetry.add(keys::DISCREPANCIES, result.records.len() as u64);
        for record in &result.records {
            let key = format!(
                "{}{}-{lvl}.vs.{}-{lvl}",
                keys::DISCREPANCY_PAIR_PREFIX,
                record.pair.0,
                record.pair.1,
                lvl = record.level,
            );
            telemetry.add(&key, 1);
        }
    }
}

fn outcome_of(result: Result<ExecResult, ExecError>) -> Outcome {
    match result {
        Err(e) => Outcome::ExecFail { reason: e.to_string() },
        Ok(result) => Outcome::Ok { value: result.value, bits: result.bits() },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm4fp_fpir::{parse_compute, InputValue};

    fn inputs_x(v: f64) -> InputSet {
        InputSet::new().with("x", InputValue::Fp(v))
    }

    #[test]
    fn identical_programs_produce_no_records_for_pure_arithmetic_at_strict_levels() {
        // A program with no math calls and no FMA opportunities is bitwise
        // identical everywhere: zero inconsistencies.
        let program =
            parse_compute("void compute(double x) { comp = x + 1.0; comp = comp - x; }").unwrap();
        let tester = DiffTester::new();
        let result = tester.run(&program, &inputs_x(0.375));
        assert_eq!(result.records.len(), 0);
        assert_eq!(result.ok_count(), 18);
        assert_eq!(result.comparisons_performed, 18);
        assert!(!result.triggered_inconsistency());
    }

    #[test]
    fn math_heavy_programs_trigger_host_device_inconsistencies() {
        let program = parse_compute(
            "void compute(double x, double y) {\n\
             comp = sin(x) * y + exp(x) / (y + 2.0);\n\
             comp += log(x * x + 1.0) * tanh(y);\n\
             }",
        )
        .unwrap();
        let inputs = InputSet::new().with("x", InputValue::Fp(1.7)).with("y", InputValue::Fp(-0.3));
        let result = DiffTester::new().run(&program, &inputs);
        assert!(result.triggered_inconsistency());
        // Host–device pairs must dominate.
        let host_device = result
            .records
            .iter()
            .filter(|r| r.pair.0 == CompilerId::Nvcc || r.pair.1 == CompilerId::Nvcc)
            .count();
        let host_host = result.records.len() - host_device;
        assert!(host_device >= host_host, "{host_device} vs {host_host}");
        // Every record involves two successfully executed configurations and
        // a nonzero digit difference.
        for r in &result.records {
            assert!(r.digit_diff >= 1);
            assert_ne!(r.bits_a, r.bits_b);
        }
    }

    #[test]
    fn fma_sensitive_program_differs_between_strict_and_contracting_configs() {
        let program =
            parse_compute("void compute(double x, double y, double z) { comp = x * y + z; }")
                .unwrap();
        let x = 1.0 + 2f64.powi(-30);
        let inputs = InputSet::new()
            .with("x", InputValue::Fp(x))
            .with("y", InputValue::Fp(x))
            .with("z", InputValue::Fp(-1.0));
        let tester = DiffTester::new();
        let result = tester.run(&program, &inputs);
        // gcc (no contraction at O0) vs nvcc (contraction at O0) differ at O0.
        assert!(result
            .records
            .iter()
            .any(|r| r.level == OptLevel::O0 && r.pair == (CompilerId::Gcc, CompilerId::Nvcc)));
        // RQ4 comparison: nvcc O0 differs from nvcc O0_nofma.
        let vs = tester.compare_vs_baseline(&result.outcomes);
        assert!(vs
            .iter()
            .any(|&(c, l, differs)| c == CompilerId::Nvcc && l == OptLevel::O0 && differs));
        assert!(vs
            .iter()
            .any(|&(c, l, differs)| c == CompilerId::Gcc && l == OptLevel::O0 && !differs));
    }

    #[test]
    fn compile_failures_reduce_performed_comparisons_but_not_the_matrix() {
        let program =
            parse_compute("void compute(double x) { comp = x + undeclared_thing; }").unwrap();
        let result = DiffTester::new().run(&program, &inputs_x(1.0));
        assert_eq!(result.ok_count(), 0);
        assert_eq!(result.comparisons_performed, 0);
        assert_eq!(result.records.len(), 0);
        assert_eq!(result.outcomes.len(), 18);
        assert!(result.outcomes.iter().all(|o| matches!(o.outcome, Outcome::CompileFail { .. })));
    }

    #[test]
    fn matrix_accessors_report_the_expected_shape() {
        let tester = DiffTester::new();
        assert_eq!(tester.configurations().len(), 18);
        assert_eq!(tester.compiler_pairs().len(), 3);
        assert_eq!(tester.comparisons_per_program(), 18);
        let reduced = DiffTester::with_matrix(
            vec![CompilerId::Gcc, CompilerId::Nvcc],
            vec![OptLevel::O0, OptLevel::O3],
        );
        assert_eq!(reduced.configurations().len(), 4);
        assert_eq!(reduced.comparisons_per_program(), 2);
    }

    #[test]
    fn reduced_reordered_matrices_compare_the_same_configurations() {
        // Comparisons index outcomes by matrix position: a reduced matrix
        // with reordered levels pairs exactly what the full matrix pairs,
        // in its own level order.
        let program = parse_compute(
            "void compute(double x, double y) {\n\
             comp = sin(x) * y + exp(x) / (y + 2.0);\n\
             comp += log(x * x + 1.0) * tanh(y);\n\
             }",
        )
        .unwrap();
        let inputs = InputSet::new().with("x", InputValue::Fp(1.7)).with("y", InputValue::Fp(-0.3));
        let levels = [OptLevel::O3Fastmath, OptLevel::O0, OptLevel::O2];
        let pair = (CompilerId::Gcc, CompilerId::Nvcc);
        let full = DiffTester::new().run(&program, &inputs);
        let reduced =
            DiffTester::with_matrix(vec![pair.0, pair.1], levels.to_vec()).run(&program, &inputs);
        let expected: Vec<&DiffRecord> = levels
            .iter()
            .flat_map(|&l| full.records.iter().filter(move |r| r.level == l && r.pair == pair))
            .collect();
        assert!(!expected.is_empty(), "gcc and nvcc must disagree somewhere");
        assert_eq!(reduced.records.iter().collect::<Vec<_>>(), expected);
        assert_eq!(reduced.comparisons_performed, levels.len());
        for o in &reduced.outcomes {
            assert_eq!(full.outcome_of(o.config), Some(&o.outcome));
        }
    }

    #[test]
    fn sealed_and_reference_engines_agree_exactly() {
        // The whole point of the bytecode back end: ProgramDiffResults are
        // indistinguishable from the reference interpreter's, bit for bit.
        let sources = [
            "void compute(double x) { comp = x + 1.0; comp = comp - x; }",
            "void compute(double x, double y) {\n\
             comp = sin(x) * y + exp(x) / (y + 2.0);\n\
             comp += log(x * x + 1.0) * tanh(y);\n\
             }",
            "void compute(double x, double *a) {\n\
             double buf[4] = {0.5, -1.5};\n\
             for (int i = 0; i < 8; ++i) { buf[i % 4] += a[i] * x; }\n\
             for (int i = 0; i < 4; ++i) { comp += buf[i] / (x + 2.0); }\n\
             if (comp > 1.0) { comp = sqrt(comp); }\n\
             }",
        ];
        for src in sources {
            let program = parse_compute(src).unwrap();
            let inputs = InputSet::new()
                .with("x", InputValue::Fp(1.7))
                .with("y", InputValue::Fp(-0.3))
                .with("a", InputValue::FpArray(vec![1.0, -2.0, 3.0, -4.0, 5.5, 0.25, 7.0, 8.125]));
            let sealed = DiffTester::new().run(&program, &inputs);
            let reference =
                DiffTester::new().with_engine(ExecEngine::Reference).run(&program, &inputs);
            assert_eq!(sealed, reference, "engines disagree for {src}");
        }
    }

    #[test]
    fn constant_heavy_programs_agree_with_the_reference_engine() {
        // Constant chains the O0 pass pipelines leave unfolded seal to
        // run-time arithmetic that must reproduce the interpreter's bits.
        let sources = [
            "void compute(double x) { comp = 1.5 + 2.5 + x; comp *= 2.0 * 4.0; }",
            "void compute(double x, double *a) {\n\
             double buf[4] = {0.5, -1.5};\n\
             for (int i = 0; i < 8; ++i) { buf[i % 4] += a[i] * x + sin(0.25); }\n\
             for (int i = 0; i < 4; ++i) { comp += buf[i] / (x + 2.0); }\n\
             if (comp > 1.0) { comp = sqrt(comp); }\n\
             }",
        ];
        for src in sources {
            let program = parse_compute(src).unwrap();
            let inputs = InputSet::new()
                .with("x", InputValue::Fp(1.7))
                .with("a", InputValue::FpArray(vec![1.0, -2.0, 3.0, -4.0, 5.5, 0.25, 7.0, 8.125]));
            let sealed = DiffTester::new().run(&program, &inputs);
            let reference =
                DiffTester::new().with_engine(ExecEngine::Reference).run(&program, &inputs);
            assert_eq!(sealed, reference, "engines disagree for {src}");
        }
    }

    #[test]
    fn matrix_scratch_reuse_across_programs_is_bit_stable() {
        let sources = [
            "void compute(double x) { comp = x * 3.0 + 1.0; }",
            "void compute(double x, double *a) {\n\
             for (int i = 0; i < 8; ++i) { comp += a[i] * x + cos(x); }\n\
             comp /= x + 3.0;\n\
             }",
            "void compute(double x) { comp = sin(x) + 1.0 + 2.0; }",
        ];
        let tester = DiffTester::new();
        let mut scratch = MatrixScratch::new();
        for src in sources {
            let program = parse_compute(src).unwrap();
            let inputs = InputSet::new()
                .with("x", InputValue::Fp(0.8125))
                .with("a", InputValue::FpArray(vec![1.0, -2.0, 3.0, -4.0, 5.5, 0.25, 7.0, 8.125]));
            let reused = tester.run_with(&program, &inputs, &mut scratch);
            let fresh = tester.run(&program, &inputs);
            assert_eq!(reused, fresh, "scratch reuse changed results for {src}");
        }
        assert!(scratch.peak_regs() > 0, "peak register file not tracked");
    }

    #[test]
    #[cfg(unix)]
    fn external_backend_fills_the_matrix_with_one_compile_per_config() {
        let dir = std::env::temp_dir()
            .join("llm4fp-difftest-tests")
            .join(format!("ext-matrix-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let toolchain =
            Arc::new(llm4fp_extcc::fakecc::install_toolchain(&dir).expect("install fakecc"));
        let tester = DiffTester::with_matrix(
            vec![CompilerId::Gcc, CompilerId::Clang],
            OptLevel::ALL.to_vec(),
        )
        .with_backend(ExecBackend::External(Arc::clone(&toolchain)));
        assert_ne!(tester.backend_fingerprint(), "virtual");
        let program = parse_compute(
            "void compute(double x, double y) { comp = x * y + 1.0; comp += sin(x); }",
        )
        .unwrap();
        let inputs =
            InputSet::new().with("x", InputValue::Fp(0.5)).with("y", InputValue::Fp(-1.25));
        let result = tester.run(&program, &inputs);
        // Both fake personalities compile and run all 6 levels.
        assert_eq!(result.ok_count(), 12);
        assert_eq!(result.comparisons_performed, 6);
        // fakecc personalities agree at the strict reference level and
        // disagree everywhere else: 5 records for the gcc-clang pair.
        assert_eq!(result.records.len(), 5);
        assert!(result.records.iter().all(|r| r.level != OptLevel::O0Nofma));
        // The RQ4 baseline comparison is computable from external runs.
        let vs = tester.compare_vs_baseline(&result.outcomes);
        assert_eq!(vs.len(), 10);
        // 12 configurations, each compiled once and its binary run once.
        assert_eq!(llm4fp_extcc::fakecc::compile_count(&dir), 12);
        assert_eq!(llm4fp_extcc::fakecc::run_count(&dir), 12);
        // The external matrix is deterministic across repeats.
        assert_eq!(result, tester.run(&program, &inputs));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn seal_refusals_and_fallbacks_count_per_configuration() {
        // Fast-math folds `x * (t - t)` to 0, so only the three
        // `O3_fastmath` configurations seal; the other 15 refuse, and they
        // fall into 7 semantics classes. The counters count the program
        // once and its refused configurations, not its classes.
        let program = parse_compute(
            "void compute(double x) {\n\
             for (int t = 0; t < 3; ++t) { comp += x * (t - t); }\n\
             double t = 2.0;\n\
             comp += t;\n\
             }",
        )
        .unwrap();
        let hub = llm4fp_telemetry::TelemetryHub::new(llm4fp_telemetry::TelemetrySpec::METRICS);
        let result = DiffTester::new().with_telemetry(hub.lane(0)).run(&program, &inputs_x(0.75));
        assert_eq!(result.ok_count(), 18);
        let metrics = hub.metrics();
        assert_eq!(metrics.get(keys::SEAL_REFUSALS), 1);
        assert_eq!(metrics.get(keys::INTERPRETER_FALLBACKS), 15);
    }

    #[test]
    fn both_engines_time_their_execution() {
        // One execute span per program on either engine; only the sealed
        // engine seals.
        let program = parse_compute("void compute(double x) { comp = sin(x) * x + 1.0; }").unwrap();
        for (engine, seals) in [(ExecEngine::Sealed, 1), (ExecEngine::Reference, 0)] {
            let hub = llm4fp_telemetry::TelemetryHub::new(llm4fp_telemetry::TelemetrySpec::TRACE);
            let tester = DiffTester::new().with_engine(engine).with_telemetry(hub.lane(0));
            assert_eq!(tester.run(&program, &inputs_x(0.5)).ok_count(), 18);
            let count = |key| hub.histogram(key).map_or(0, |h| h.count);
            assert_eq!(count(keys::SPAN_EXECUTE), 1, "{engine:?}");
            assert_eq!(count(keys::SPAN_SEAL), seals, "{engine:?}");
            assert!(hub.summary().exec_time > std::time::Duration::ZERO, "{engine:?}");
            assert_eq!(hub.summary().trace_events, 1 + seals, "{engine:?}");
        }
    }

    #[test]
    fn baseline_comparisons_follow_the_matrix_order() {
        // A reordered matrix without `O0_nofma` has no baseline; with it,
        // every other level of each compiler is compared, in level order.
        let program =
            parse_compute("void compute(double x, double y, double z) { comp = x * y + z; }")
                .unwrap();
        let x = 1.0 + 2f64.powi(-30);
        let inputs = InputSet::new()
            .with("x", InputValue::Fp(x))
            .with("y", InputValue::Fp(x))
            .with("z", InputValue::Fp(-1.0));
        let levels = vec![OptLevel::O2, OptLevel::O0Nofma, OptLevel::O0];
        let tester = DiffTester::with_matrix(vec![CompilerId::Nvcc, CompilerId::Gcc], levels);
        let vs = tester.compare_vs_baseline(&tester.run(&program, &inputs).outcomes);
        assert_eq!(
            vs,
            [
                (CompilerId::Nvcc, OptLevel::O2, true),
                (CompilerId::Nvcc, OptLevel::O0, true),
                (CompilerId::Gcc, OptLevel::O2, true),
                (CompilerId::Gcc, OptLevel::O0, false),
            ]
        );
        let no_baseline =
            DiffTester::with_matrix(vec![CompilerId::Gcc], vec![OptLevel::O0, OptLevel::O3]);
        assert!(no_baseline
            .compare_vs_baseline(&no_baseline.run(&program, &inputs).outcomes)
            .is_empty());
    }

    #[test]
    fn outcome_accessors() {
        let ok = Outcome::Ok { value: 1.5, bits: 1.5f64.to_bits() };
        assert_eq!(ok.value(), Some(1.5));
        assert!(ok.is_ok());
        let fail = Outcome::ExecFail { reason: "fuel".into() };
        assert_eq!(fail.bits(), None);
        assert!(!fail.is_ok());
    }
}
