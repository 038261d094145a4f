//! The traced run: per-layer metrics from the benchmark's own timers around
//! the public functions each workspace crate exports. Nothing inside the
//! program is instrumented.
//!
//! * **Campaign loop** (`generator`, `fpir`, `compiler`, `difftest`,
//!   `core`): [`Replay`] re-implements `CampaignRunner::run_one` from public
//!   functions, in the same order and with the same `seed ^ 0x5eed_000N`
//!   streams, over one shard's worth of `campaign-llm4fp` and of the Varity
//!   and Direct-Prompt halves of `paper-table2`. Each replay must equal
//!   `Campaign::run` record for record, and every tested program is
//!   re-executed on `ExecEngine::Reference`, whose outcomes must equal the
//!   VM's.
//! * **Transport** (`wire`, `persist`, `executor`, `core` checkpoints): one
//!   `pool-rundir` shard driven by hand through its epochs, its real job
//!   and result frames, its checkpoints written to and read back from a run
//!   dir, and the same campaign on each executor.
//! * **`metrics`**: CodeBLEU and clone detection on the `paper-table2`
//!   corpora. **`telemetry`**: `campaign-llm4fp` with metrics and tracing
//!   on against off.
//!
//! Not measured: `extcc` (differential testing needs two host compilers,
//! and the `fakecc` test double is a shell script, so timing it would time
//! the shell) and `mathlib` (it runs inside the VM, so `compiler.execute_us`
//! covers it).

use std::path::Path;
use std::time::{Duration, Instant};

use rand::prelude::*;

use llm4fp::{
    ApproachKind, BackendSpec, Campaign, CampaignConfig, CampaignResult, ProgramRecord,
    RunnerCheckpoint, SuccessfulSet,
};
use llm4fp_bench::{CliExecutor, ExpOptions};
use llm4fp_compiler::interp::DEFAULT_FUEL;
use llm4fp_compiler::{CompilerConfig, ExecScratch, Frontend, SealScratch};
use llm4fp_difftest::{
    Aggregates, CachedDiff, DiffTester, ExecEngine, MatrixScratch, Outcome, ProgramDiffResult,
    ResultCache,
};
use llm4fp_fpir::{
    parse_compute, program_hash, program_id, to_compute_source, tokenize, validate, InputSet,
    Program,
};
use llm4fp_generator::llm::SimulatedLlmConfig;
use llm4fp_generator::{
    InputGenerator, LlmClient, PromptBuilder, SimulatedLlm, Strategy, VarityGenerator,
};
use llm4fp_metrics::{average_pairwise_codebleu, detect_clones};
use llm4fp_orchestrator::wire::{self, ShardJob, ShardJobResult};
use llm4fp_orchestrator::{
    plan_epoch_segments, plan_shards, run_shard, RunDir, RunManifest, ShardCtx, ShardRunner,
};

use crate::report::{digest, median, Report};
use crate::workload::{self, orchestrate, ScratchDir, Workload, EPOCHS, SHARDS};

/// The stages of `CampaignRunner::run_one`, in call order. Together they
/// cover the whole per-program loop; what they miss is `unattributed`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stage {
    Prompt,
    LlmEmit,
    Varity,
    Parse,
    Validate,
    Hash,
    Inputs,
    DiffRun,
    Baseline,
    Aggregate,
    Print,
    Insert,
}

impl Stage {
    const ALL: [Stage; 12] = [
        Stage::Prompt,
        Stage::LlmEmit,
        Stage::Varity,
        Stage::Parse,
        Stage::Validate,
        Stage::Hash,
        Stage::Inputs,
        Stage::DiffRun,
        Stage::Baseline,
        Stage::Aggregate,
        Stage::Print,
        Stage::Insert,
    ];

    fn metric(self) -> &'static str {
        match self {
            Stage::Prompt => "generator.prompt_us",
            Stage::LlmEmit => "generator.llm_emit_us",
            Stage::Varity => "generator.varity_us",
            Stage::Parse => "fpir.parse_us",
            Stage::Validate => "fpir.validate_us",
            Stage::Hash => "fpir.hash_us",
            Stage::Inputs => "generator.inputs_us",
            Stage::DiffRun => "difftest.run_us",
            Stage::Baseline => "difftest.baseline_us",
            Stage::Aggregate => "difftest.aggregate_us",
            Stage::Print => "fpir.print_us",
            Stage::Insert => "core.successful_insert_us",
        }
    }
}

/// Accumulated time per stage; a disabled stopwatch only runs the closures.
struct Stopwatch {
    on: bool,
    totals: [Duration; Stage::ALL.len()],
}

impl Stopwatch {
    fn new(on: bool) -> Self {
        Stopwatch { on, totals: [Duration::ZERO; Stage::ALL.len()] }
    }

    fn time<T>(&mut self, stage: Stage, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let out = f();
        self.totals[stage as usize] += start.elapsed();
        out
    }

    fn total(&self, stage: Stage) -> Duration {
        self.totals[stage as usize]
    }
}

/// What one replayed program leaves for the checker, outside the timed loop.
struct Pending {
    /// The raw LLM text (empty for Varity), for the token count.
    source: String,
    /// A program the tester ran (not a cache hit) with its inputs and result.
    tested: Option<(Program, InputSet, ProgramDiffResult)>,
}

/// `CampaignRunner` rebuilt from public functions, with the orchestrator's
/// shared result cache attached as in-process shards have it.
struct Replay {
    config: CampaignConfig,
    rng: StdRng,
    varity: VarityGenerator,
    llm: SimulatedLlm,
    prompts: PromptBuilder,
    tester: DiffTester,
    comparisons_per_program: usize,
    input_seed: u64,
    cache: ResultCache,
    cache_scope: String,
    successful: SuccessfulSet,
    scratch: MatrixScratch,
    aggregates: Aggregates,
    records: Vec<ProgramRecord>,
    sources: Vec<String>,
    generation_failures: usize,
    /// Wall time of the per-program loop, checker excluded.
    pipeline: Duration,
}

impl Replay {
    fn new(config: &CampaignConfig) -> Self {
        let seed = config.seed;
        let tester = DiffTester::with_matrix(config.compilers.clone(), config.levels.clone())
            .with_threads(config.threads)
            .with_seal_mode(config.seal_mode);
        Replay {
            rng: StdRng::seed_from_u64(seed),
            varity: VarityGenerator::new(seed ^ 0x5eed_0001),
            llm: SimulatedLlm::with_config(
                seed ^ 0x5eed_0002,
                SimulatedLlmConfig {
                    sampling: config.sampling,
                    direct_prompt_invalid_rate: config.direct_prompt_invalid_rate,
                    ..SimulatedLlmConfig::default()
                },
            ),
            prompts: PromptBuilder::new(config.precision),
            comparisons_per_program: tester.comparisons_per_program(),
            cache_scope: tester.backend_fingerprint(),
            tester,
            input_seed: seed ^ 0x5eed_0003,
            cache: ResultCache::new(),
            successful: SuccessfulSet::new(),
            scratch: MatrixScratch::new(),
            aggregates: Aggregates::new(),
            records: Vec::with_capacity(config.programs),
            sources: Vec::new(),
            generation_failures: 0,
            pipeline: Duration::ZERO,
            config: config.clone(),
        }
    }

    /// Replay the whole budget, handing every program to `check` after
    /// the timed part of its iteration.
    fn run(mut self, sw: &mut Stopwatch, mut check: impl FnMut(Pending)) -> Self {
        for index in 0..self.config.programs {
            let started = Instant::now();
            let pending = self.step(index, sw);
            self.pipeline += started.elapsed();
            check(pending);
        }
        self
    }

    /// `CampaignRunner::run_one`.
    fn step(&mut self, index: usize, sw: &mut Stopwatch) -> Pending {
        let (strategy, source, program) = self.generate(sw);
        let Some(program) = program else {
            self.generation_failures += 1;
            let empty = ProgramDiffResult {
                program_id: String::new(),
                outcomes: Vec::new(),
                records: Vec::new(),
                comparisons_performed: 0,
            };
            sw.time(Stage::Aggregate, || {
                self.aggregates.add_result(&empty, self.comparisons_per_program)
            });
            self.records.push(ProgramRecord {
                index,
                program_id: String::new(),
                strategy,
                valid: false,
                inconsistencies: 0,
                successful: false,
            });
            return Pending { source, tested: None };
        };
        let id = sw.time(Stage::Hash, || program_id(&program));
        let key = ResultCache::scoped_key(&self.cache_scope, &id);
        let (result, baseline, inputs) = match self.cache.get(&key) {
            Some(CachedDiff { result, baseline }) => (result, baseline, None),
            None => {
                let hash = sw.time(Stage::Hash, || program_hash(&program));
                let inputs = sw.time(Stage::Inputs, || {
                    InputGenerator::new(self.input_seed ^ hash)
                        .generate(&program)
                        .truncated(self.config.precision)
                });
                let result = sw.time(Stage::DiffRun, || {
                    self.tester.run_with(&program, &inputs, &mut self.scratch)
                });
                let baseline =
                    sw.time(Stage::Baseline, || self.tester.compare_vs_baseline(&result.outcomes));
                self.cache
                    .insert(key, CachedDiff { result: result.clone(), baseline: baseline.clone() });
                (result, baseline, Some(inputs))
            }
        };
        sw.time(Stage::Aggregate, || {
            self.aggregates.add_result(&result, self.comparisons_per_program);
            self.aggregates.add_baseline_comparisons(&baseline);
        });
        let printed = sw.time(Stage::Print, || to_compute_source(&program));
        let triggered = result.triggered_inconsistency();
        if triggered {
            sw.time(Stage::Insert, || self.successful.insert(&printed));
        }
        self.records.push(ProgramRecord {
            index,
            program_id: id,
            strategy,
            valid: true,
            inconsistencies: result.records.len(),
            successful: triggered,
        });
        self.sources.push(printed);
        Pending { source, tested: inputs.map(|inputs| (program, inputs, result)) }
    }

    /// `CampaignRunner::generate_one`: strategy label, raw LLM text and
    /// the parsed program if it is valid.
    fn generate(&mut self, sw: &mut Stopwatch) -> (String, String, Option<Program>) {
        let (strategy, prompt) = match self.config.approach {
            ApproachKind::Varity => {
                let program = sw.time(Stage::Varity, || self.varity.generate());
                return ("varity".to_string(), String::new(), Some(program));
            }
            ApproachKind::DirectPrompt => {
                (Strategy::DirectPrompt, sw.time(Stage::Prompt, || self.prompts.direct_prompt()))
            }
            ApproachKind::GrammarGuided => {
                (Strategy::GrammarBased, sw.time(Stage::Prompt, || self.prompts.grammar_based()))
            }
            // Grammar-Based first; afterwards grammar with the configured
            // probability, feedback mutation of a successful program else.
            ApproachKind::Llm4Fp => sw.time(Stage::Prompt, || {
                let seed = if self.successful.is_empty()
                    || self.rng.gen_bool(self.config.grammar_probability)
                {
                    None
                } else {
                    self.successful.sources().choose(&mut self.rng).cloned()
                };
                match seed {
                    None => (Strategy::GrammarBased, self.prompts.grammar_based()),
                    Some(seed) => {
                        (Strategy::FeedbackMutation, self.prompts.feedback_mutation(&seed))
                    }
                }
            }),
        };
        let response = sw.time(Stage::LlmEmit, || self.llm.generate(&prompt));
        let program = sw.time(Stage::Parse, || parse_compute(&response.source).ok());
        let program = program.filter(|p| sw.time(Stage::Validate, || validate(p).is_empty()));
        (strategy.name().to_string(), response.source, program)
    }

    /// Whether the replay reproduced `expected` exactly.
    fn matches(&self, expected: &CampaignResult) -> bool {
        self.records == expected.records
            && self.aggregates == expected.aggregates
            && self.sources == expected.sources
            && self.successful.own_sources() == expected.successful_sources
            && self.generation_failures == expected.generation_failures
    }
}

/// Times the compiler stages of each tested program on its own (front
/// end, matrix seal, execution of all configurations) and re-executes it
/// on the reference interpreter, whose outcomes must equal the VM's.
struct Checker {
    configs: Vec<CompilerConfig>,
    reference: DiffTester,
    seal_scratch: SealScratch,
    exec: ExecScratch,
    frontend: Duration,
    seal: Duration,
    execute: Duration,
    sealed_instrs: usize,
    seal_refusals: usize,
    tested: usize,
    tokens: usize,
    mismatches: usize,
}

impl Checker {
    fn new(config: &CampaignConfig) -> Self {
        let tester = DiffTester::with_matrix(config.compilers.clone(), config.levels.clone())
            .with_threads(config.threads)
            .with_seal_mode(config.seal_mode);
        Checker {
            configs: tester.configurations(),
            reference: tester.with_engine(ExecEngine::Reference),
            seal_scratch: SealScratch::new(),
            exec: ExecScratch::new(),
            frontend: Duration::ZERO,
            seal: Duration::ZERO,
            execute: Duration::ZERO,
            sealed_instrs: 0,
            seal_refusals: 0,
            tested: 0,
            tokens: 0,
            mismatches: 0,
        }
    }

    fn check(&mut self, pending: Pending) {
        self.tokens += tokenize(&pending.source).len();
        let Some((program, inputs, result)) = pending.tested else { return };
        self.tested += 1;
        let started = Instant::now();
        let Ok(frontend) = Frontend::new(&program) else {
            self.mismatches += 1;
            return;
        };
        self.frontend += started.elapsed();
        let started = Instant::now();
        let sealed = frontend.seal_matrix_with(
            &self.configs,
            self.reference.seal_mode,
            &mut self.seal_scratch,
        );
        self.seal += started.elapsed();
        self.sealed_instrs += sealed.iter().flatten().map(|s| s.instruction_count()).sum::<usize>();
        self.seal_refusals += usize::from(sealed.iter().any(Result::is_err));
        let started = Instant::now();
        let vm_bits: Vec<Option<u64>> = self
            .configs
            .iter()
            .zip(&sealed)
            .map(|(&config, artifact)| match artifact {
                Ok(artifact) => artifact.execute_into(&inputs, DEFAULT_FUEL, &mut self.exec),
                Err(_) => frontend.specialize(config).execute(&inputs),
            })
            .map(|outcome| outcome.ok().map(|r| r.bits()))
            .collect();
        self.execute += started.elapsed();
        let reference = self.reference.run(&program, &inputs);
        let same = reference.outcomes.len() == result.outcomes.len()
            && reference
                .outcomes
                .iter()
                .zip(&result.outcomes)
                .all(|(r, t)| r.config == t.config && same_outcome(&r.outcome, &t.outcome))
            && result.outcomes.iter().map(|o| o.outcome.bits()).eq(vm_bits);
        self.mismatches += usize::from(!same);
    }
}

/// Outcome equality by bits: `Outcome`'s derived `PartialEq` compares the
/// `f64` value, and a NaN result never equals itself.
fn same_outcome(a: &Outcome, b: &Outcome) -> bool {
    match (a, b) {
        (Outcome::Ok { bits: x, .. }, Outcome::Ok { bits: y, .. }) => x == y,
        (Outcome::CompileFail { reason: x }, Outcome::CompileFail { reason: y })
        | (Outcome::ExecFail { reason: x }, Outcome::ExecFail { reason: y }) => x == y,
        _ => false,
    }
}

/// `workload`'s campaign configuration for `approach`, replayed as one
/// sequential campaign of `programs` programs.
fn replay_config(
    workload: Workload,
    seed: u64,
    programs: usize,
    approach: ApproachKind,
) -> CampaignConfig {
    workload
        .options(seed, programs, Path::new("unused"))
        .campaign_config_with(approach, BackendSpec::Virtual)
}

fn per_program_us(total: Duration, programs: usize) -> f64 {
    1e6 * total.as_secs_f64() / programs.max(1) as f64
}

/// The campaign-loop layers on one shard's worth of `campaign-llm4fp`.
fn campaign_layers(seed: u64, budget: usize, report: &mut Report) {
    let config =
        replay_config(Workload::CampaignLlm4fp, seed, budget / SHARDS, ApproachKind::Llm4Fp);
    let programs = config.programs;
    let expected = Campaign::new(config.clone()).run();

    // Untimed replays before and after the traced one, so warm-up does
    // not pass for tracing overhead.
    let mut untimed = Duration::ZERO;
    let mut untimed_replay = |report: &mut Report| {
        let replay = Replay::new(&config).run(&mut Stopwatch::new(false), drop);
        report.check(programs, replay.matches(&expected));
        untimed += replay.pipeline / 2;
    };
    untimed_replay(report);
    let mut sw = Stopwatch::new(true);
    let mut checker = Checker::new(&config);
    let traced = Replay::new(&config).run(&mut sw, |pending| checker.check(pending));
    report.check(programs, traced.matches(&expected) && checker.mismatches == 0);
    untimed_replay(report);

    let pipeline = traced.pipeline;
    let compiler = checker.frontend + checker.seal + checker.execute;
    let fanout = sw.total(Stage::DiffRun).as_secs_f64() - compiler.as_secs_f64();
    let covered: Duration = Stage::ALL.iter().map(|&s| sw.total(s)).sum();
    let unattributed = 1.0 - covered.as_secs_f64() / pipeline.as_secs_f64();

    // The layer table: every stage of the loop, the compiler stages nested
    // in `difftest.run`, and what no stage covers.
    report.note(format!(
        "layer table: LLM4FP replay of {programs} programs (one shard of campaign-llm4fp), \
         loop {:.1} ms",
        1e3 * pipeline.as_secs_f64()
    ));
    report.note(format!("{:<32} {:>10} {:>8} {:>12}", "layer", "ms", "share", "us/program"));
    let row = |name: &str, secs: f64| {
        format!(
            "{name:<32} {:>10.2} {:>7.2}% {:>12.2}",
            1e3 * secs,
            100.0 * secs / pipeline.as_secs_f64(),
            1e6 * secs / programs as f64
        )
    };
    for stage in Stage::ALL.into_iter().filter(|&s| s != Stage::Varity) {
        report.note(row(stage.metric().trim_end_matches("_us"), sw.total(stage).as_secs_f64()));
        if stage == Stage::DiffRun {
            for (name, time) in [
                ("  compiler.frontend", checker.frontend),
                ("  compiler.seal", checker.seal),
                ("  compiler.execute", checker.execute),
            ] {
                report.note(row(name, time.as_secs_f64()));
            }
            report.note(row("  difftest.fanout", fanout));
        }
    }
    report.note(row("unattributed", (pipeline.saturating_sub(covered)).as_secs_f64()));

    for stage in [
        Stage::Prompt,
        Stage::LlmEmit,
        Stage::Inputs,
        Stage::Parse,
        Stage::Validate,
        Stage::Hash,
        Stage::Print,
    ] {
        report.metric(stage.metric(), per_program_us(sw.total(stage), programs), "us");
    }
    report.metric(
        "fpir.tokens_per_s",
        checker.tokens as f64 / sw.total(Stage::Parse).as_secs_f64(),
        "tokens/s",
    );
    report.metric("compiler.frontend_us", per_program_us(checker.frontend, programs), "us");
    report.metric("compiler.seal_us", per_program_us(checker.seal, programs), "us");
    report.metric("compiler.execute_us", per_program_us(checker.execute, programs), "us");
    report.metric(
        "compiler.sealed_instrs",
        checker.sealed_instrs as f64 / checker.tested.max(1) as f64,
        "instrs",
    );
    report.metric("compiler.seal_refusals", checker.seal_refusals as f64, "count");
    for stage in [Stage::DiffRun, Stage::Baseline, Stage::Aggregate] {
        report.metric(stage.metric(), per_program_us(sw.total(stage), programs), "us");
    }
    report.metric("difftest.fanout_us", 1e6 * fanout / programs as f64, "us");
    report.metric("core.run_one_us", per_program_us(expected.pipeline_time, programs), "us");
    report.metric("core.unattributed_share", unattributed, "share");
    report.metric(
        "core.successful_insert_us",
        per_program_us(sw.total(Stage::Insert), programs),
        "us",
    );
    report.metric(
        "bench.tracing_overhead_share",
        pipeline.as_secs_f64() / untimed.as_secs_f64() - 1.0,
        "share",
    );
}

/// The Varity and Direct-Prompt halves of `paper-table2`: a sequential
/// replay of each campaign (Varity generation, Direct-Prompt's invalid
/// programs and result-cache hits), then CodeBLEU and clone detection on
/// the corpora of the orchestrated campaigns.
fn table2_layers(seed: u64, budget: usize, report: &mut Report) -> Result<(), String> {
    let workload = Workload::PaperTable2;
    let (mut codebleu, mut clones, mut pairs) = (Duration::ZERO, Duration::ZERO, 0);
    for approach in [ApproachKind::Varity, ApproachKind::DirectPrompt] {
        let config = replay_config(workload, seed, budget, approach);
        let expected = Campaign::new(config.clone()).run();
        let mut sw = Stopwatch::new(true);
        let mut checker = Checker::new(&config);
        let replay = Replay::new(&config).run(&mut sw, |pending| checker.check(pending));
        report.check(config.programs, replay.matches(&expected) && checker.mismatches == 0);
        match approach {
            ApproachKind::Varity => report.metric(
                "generator.varity_us",
                per_program_us(sw.total(Stage::Varity), config.programs),
                "us",
            ),
            // Direct-Prompt is where generation wastes work (invalid
            // programs) and where duplicates hit the result cache.
            _ => {
                let valid = config.programs - replay.generation_failures;
                report.metric("fpir.valid_ratio", valid as f64 / config.programs as f64, "ratio");
                report.metric("difftest.cache_hit_ratio", replay.cache.stats().hit_rate(), "ratio");
            }
        }

        let opts = workload.options(seed, budget, Path::new("unused"));
        let run = orchestrate(&opts, approach)?;
        let reference = workload::reference_one(seed, budget, approach)?;
        report.check(run.result.records.len(), digest(&run.result) == reference);
        let (sources, config) = (&run.result.sources, &run.result.config);
        let started = Instant::now();
        let (_, scored) =
            average_pairwise_codebleu(sources, config.threads.max(1), config.max_codebleu_pairs);
        codebleu += started.elapsed();
        let started = Instant::now();
        std::hint::black_box(detect_clones(sources));
        clones += started.elapsed();
        pairs += scored;
    }
    let approaches = 2.0;
    report.metric("metrics.codebleu_us", per_program_us(codebleu, pairs), "us");
    report.metric("metrics.pairs_scored", pairs as f64 / approaches, "pairs");
    report.metric("metrics.clones_ms", 1e3 * clones.as_secs_f64() / approaches, "ms");
    report.metric("metrics.measure_s", (codebleu + clones).as_secs_f64() / approaches, "s");
    Ok(())
}

fn frame_len<T: serde::Serialize>(value: &T) -> usize {
    let mut bytes = Vec::new();
    wire::write_frame(&mut bytes, value).expect("frames encode into memory");
    bytes.len()
}

/// Median seconds of `f` over repetitions filling about `budget` (one
/// repetition when that alone takes longer).
fn timed_median(budget: Duration, mut f: impl FnMut()) -> f64 {
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.is_empty() || (started.elapsed() < budget && samples.len() < 200) {
        let t = Instant::now();
        f();
        samples.push(t.elapsed().as_secs_f64());
    }
    median(&samples)
}

/// A job frame `factor` times the size of `job`: its checkpoint's records,
/// sources and successful set repeated.
fn scaled_job(job: &ShardJob, factor: usize) -> ShardJob {
    fn repeat<T: Clone>(items: &[T], factor: usize) -> Vec<T> {
        items.iter().cycle().take(items.len() * factor).cloned().collect()
    }
    let mut job = job.clone();
    if let Some(checkpoint) = job.checkpoint.as_mut() {
        checkpoint.records = repeat(&checkpoint.records, factor);
        checkpoint.sources = repeat(&checkpoint.sources, factor);
        checkpoint.successful.sources = repeat(&checkpoint.successful.sources, factor);
        checkpoint.successful.own = repeat(&checkpoint.successful.own, factor);
    }
    job
}

/// `wire`, `persist`, `executor` and the `core` checkpoint metrics on
/// `pool-rundir`.
fn transport_layers(seed: u64, budget: usize, report: &mut Report) -> Result<(), String> {
    let workload = Workload::PoolRundir;
    let scratch = ScratchDir::new("layers").map_err(|e| format!("scratch dir: {e}"))?;
    let run_dir = scratch.path().join("run");
    let opts = workload.options(seed, budget, &run_dir);
    let config = opts.campaign_config_with(ApproachKind::Llm4Fp, BackendSpec::Virtual);
    let reference = workload::reference_one(seed, budget, ApproachKind::Llm4Fp)?;

    // The same campaign on each executor, without the run dir.
    let mut wall = Vec::new();
    let mut in_process_result = None;
    for executor in [CliExecutor::InProcess, CliExecutor::ProcessPool, CliExecutor::Remote] {
        let opts = ExpOptions { executor, run_dir: None, ..opts.clone() };
        let started = Instant::now();
        let run = orchestrate(&opts, ApproachKind::Llm4Fp)?;
        wall.push(started.elapsed().as_secs_f64());
        report.check(run.result.records.len(), digest(&run.result) == reference);
        in_process_result.get_or_insert(run.result);
    }
    report.metric("executor.pool_overhead_s", wall[1] - wall[0], "s");
    report.metric("executor.remote_overhead_s", wall[2] - wall[0], "s");

    // The workload itself once, for its run dir and resume.
    let iteration = workload::run(workload, &opts)?;
    report.check(iteration.programs, workload::matches(&iteration, &[reference]));
    let persisted = iteration.persisted.as_ref().expect("pool-rundir persists");
    report.metric("resume_s", persisted.resume.as_secs_f64(), "s");
    report.metric("run_dir_mb", persisted.run_dir_bytes as f64 / 1e6, "MB");

    // Shard 0 driven by hand through its epochs: real job and result
    // frames, and a checkpoint/restore at every barrier.
    let spec = plan_shards(&config, SHARDS)[0];
    let job = |segment, finish, checkpoint: &Option<RunnerCheckpoint>| ShardJob {
        config: config.clone(),
        spec,
        segment,
        finish,
        checkpoint: checkpoint.clone(),
        process_slots: 1,
        telemetry: false,
        lease: 0,
    };
    let answer = |delta, checkpoint, output| ShardJobResult {
        index: spec.index,
        delta,
        checkpoint,
        output,
        telemetry: None,
        lease: 0,
    };
    let frame_kb = |report: &mut Report, name: &str, epoch: usize, len: usize| {
        report.metric(format!("wire.{name}_kb.e{}", epoch + 1), len as f64 / 1e3, "KB");
    };
    let segments = plan_epoch_segments(spec.budget, EPOCHS);
    let (&last, barriers) = segments.split_last().expect("at least one epoch");
    let mut runner = ShardRunner::new(&config, spec, None);
    let mut checkpoint: Option<RunnerCheckpoint> = None;
    let (mut checkpoint_s, mut restore_s, mut checkpoint_bytes) =
        (Vec::new(), Vec::new(), Vec::new());
    for (epoch, &segment) in barriers.iter().enumerate() {
        frame_kb(report, "job", epoch, frame_len(&job(segment, false, &checkpoint)));
        let delta = runner.run_segment(segment, |_| {});
        let started = Instant::now();
        let snapshot = runner.checkpoint();
        checkpoint_s.push(started.elapsed().as_secs_f64());
        checkpoint_bytes.push(serde_json::to_string(&snapshot).map_or(0, |s| s.len()) as f64);
        let started = Instant::now();
        runner = ShardRunner::from_checkpoint(&config, spec, None, snapshot.clone());
        restore_s.push(started.elapsed().as_secs_f64());
        frame_kb(report, "result", epoch, frame_len(&answer(delta, Some(snapshot.clone()), None)));
        checkpoint = Some(snapshot);
    }
    let last_job = job(last, true, &checkpoint);
    frame_kb(report, "job", barriers.len(), frame_len(&last_job));
    let delta = runner.run_segment(last, |_| {});
    let output = runner.finish();
    let expected = run_shard(&spec, &ShardCtx::new(&config));
    let same = output.records == expected.records
        && output.aggregates == expected.aggregates
        && output.sources == expected.sources
        && output.successful_sources == expected.successful_sources;
    report.check(spec.budget, same);
    frame_kb(report, "result", barriers.len(), frame_len(&answer(delta, None, Some(output))));
    let mean = |v: &[f64]| v.iter().sum::<f64>() / v.len().max(1) as f64;
    report.metric("core.checkpoint_us", 1e6 * mean(&checkpoint_s), "us");
    report.metric("core.restore_us", 1e6 * mean(&restore_s), "us");
    report.metric("core.checkpoint_kb", mean(&checkpoint_bytes) / 1e3, "KB");

    // Encode and decode the last epoch's job (the largest checkpoint) at
    // 1x, 2x and 4x its size, so the growth order of both directions shows.
    for factor in [1, 2, 4] {
        let job = scaled_job(&last_job, factor);
        let mut bytes = Vec::new();
        let encode = timed_median(Duration::from_millis(200), || {
            bytes.clear();
            wire::write_frame(&mut bytes, &job).expect("frames encode into memory");
        });
        let mut decoded_ok = true;
        let decode = timed_median(Duration::from_millis(200), || {
            let decoded: ShardJob = wire::read_frame(&mut bytes.as_slice()).expect("frame decodes");
            decoded_ok &= decoded == job;
        });
        report.check(1, decoded_ok);
        let mb = bytes.len() as f64 / 1e6;
        report.metric(format!("wire.encode_mb_per_s.x{factor}"), mb / encode, "MB/s");
        report.metric(format!("wire.decode_mb_per_s.x{factor}"), mb / decode, "MB/s");
    }

    // Run-dir artifacts: the largest checkpoint and the merged result.
    let dir = RunDir::open(
        scratch.path().join("persist"),
        &RunManifest::new(config.clone(), SHARDS, EPOCHS),
    )
    .map_err(|e| format!("run dir: {e}"))?;
    let checkpoint = checkpoint.expect("E > 1 leaves a barrier checkpoint");
    let result = in_process_result.expect("in-process run");
    let budget = Duration::from_millis(200);
    let write =
        timed_median(budget, || dir.write_checkpoint(0, 0, &checkpoint).expect("checkpoint write"));
    let mut loaded_ok = true;
    let load = timed_median(budget, || {
        loaded_ok &= dir.load_checkpoint(0, 0).as_ref() == Some(&checkpoint)
    });
    report.metric("persist.checkpoint_write_ms", 1e3 * write, "ms");
    report.metric("persist.checkpoint_load_ms", 1e3 * load, "ms");
    let write = timed_median(budget, || dir.write_result(&result).expect("result write"));
    let load = timed_median(budget, || {
        loaded_ok &= dir.load_result().map(|r| digest(&r)) == Some(reference);
    });
    report.metric("persist.result_write_ms", 1e3 * write, "ms");
    report.metric("persist.result_load_ms", 1e3 * load, "ms");
    report.check(2, loaded_ok);
    Ok(())
}

/// `campaign-llm4fp` with telemetry metrics and tracing on, against off
/// (timed twice, bracketing the others); results must not change.
fn telemetry_layers(seed: u64, budget: usize, report: &mut Report) -> Result<(), String> {
    let workload = Workload::CampaignLlm4fp;
    let off = workload.flags(seed, budget, Path::new("unused"));
    let metrics: Vec<String> = off.iter().filter(|f| *f != "--no-metrics").cloned().collect();
    let trace = [metrics.clone(), vec!["--trace".to_string()]].concat();
    let variants = [&off, &metrics, &trace, &off]
        .map(|flags| ExpOptions::parse(flags.clone()).expect("telemetry flags parse"));
    let reference = workload::reference_one(seed, budget, ApproachKind::Llm4Fp)?;
    let mut wall = Vec::new();
    for opts in &variants {
        let started = Instant::now();
        let run = orchestrate(opts, ApproachKind::Llm4Fp)?;
        wall.push(started.elapsed().as_secs_f64());
        report.check(run.result.records.len(), digest(&run.result) == reference);
    }
    let off = (wall[0] + wall[3]) / 2.0;
    report.metric("telemetry.metrics_overhead_share", wall[1] / off - 1.0, "share");
    report.metric("telemetry.trace_overhead_share", wall[2] / off - 1.0, "share");
    Ok(())
}

/// The traced run at `budget(workload)` programs per campaign. It is the
/// same whichever workload is named, since a traced run reports every
/// per-layer metric.
pub fn measure(seed: u64, budget: impl Fn(Workload) -> usize) -> Result<Report, String> {
    let mut report = Report::default();
    campaign_layers(seed, budget(Workload::CampaignLlm4fp), &mut report);
    table2_layers(seed, budget(Workload::PaperTable2), &mut report)?;
    transport_layers(seed, budget(Workload::PoolRundir), &mut report)?;
    telemetry_layers(seed, budget(Workload::CampaignLlm4fp), &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replays_equal_campaign_run_and_the_reference_interpreter() {
        for approach in ApproachKind::ALL {
            let config = CampaignConfig::new(approach).with_budget(30).with_seed(5);
            let expected = Campaign::new(config.clone()).run();
            let mut checker = Checker::new(&config);
            let replay = Replay::new(&config).run(&mut Stopwatch::new(true), |p| checker.check(p));
            assert!(replay.matches(&expected), "{} replay differs", approach.name());
            assert_eq!(checker.mismatches, 0, "{}: VM differs from interpreter", approach.name());
            assert!(checker.tested > 0);
            let untimed = Replay::new(&config).run(&mut Stopwatch::new(false), drop);
            assert!(untimed.matches(&expected));
        }
    }
}
