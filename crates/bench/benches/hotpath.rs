//! Execution hot-path benchmarks: the sealed bytecode VM against the
//! reference tree-walking interpreter, the restructured differential-
//! testing driver on both engines, and the seal-side pipeline itself.
//!
//! `interp_vs_vm` measures the per-(program, configuration, input)
//! execution cost on a fixed Varity corpus — the innermost loop of every
//! campaign. Artifacts are prebuilt for both sides so the comparison
//! isolates execution; `seal_and_execute` adds the one-time sealing cost
//! to show the break-even point (sealing pays for itself on the first
//! run). `difftest_matrix` prices the full 18-configuration driver per
//! program on each engine, and with one `MatrixScratch` reused across
//! the corpus as a shard's worker loop does. Its `llm4fp_corpus_160`
//! entry runs the sealed matrix over the 160 LLM4FP programs below:
//! they call math functions more often than Varity's, so fewer of their
//! configurations share an artifact, and each program runs more distinct
//! executions.
//! `seal_matrix` prices the build side: 18 independent `Frontend::seal`
//! calls against one matrix-shared `Frontend::seal_matrix` (prefix-tree
//! pass pipelines + one layout per program).
//! `telemetry_overhead` prices the observability layer on a sharded
//! campaign: telemetry off (the gated disabled path — every recording
//! call must stay one `None` branch), metrics mode and full trace mode.
//! `default_campaign` runs a 400-program LLM4FP campaign at K=8, E=4 from
//! a default `CampaignConfig` on default orchestrator options, so a
//! per-program cost that only the default settings pay shows up here.
//! `wire` prices the out-of-process transport's serialization boundary:
//! `write_frame`/`read_frame` of a real checkpointed LLM4FP `ShardJob`
//! after 200 and after 2000 programs. The second frame is about ten times
//! the first, so a decoder that turns superlinear again regresses the
//! 2000-program entry far more than the 200-program one.
//! `metrics` prices Table 2's diversity column on a 160-program LLM4FP
//! corpus at the default pair cap (which binds, so the stride-sampled
//! path is what is timed): `pairwise_codebleu_160` is the average
//! pairwise CodeBLEU alone, and `diversity_report_160` the whole column,
//! `DiversityReport::measure`, which adds clone detection.
//! `diversity_report_1000` prices the same column at the paper's budget:
//! a 1,000-program LLM4FP corpus, built by a campaign when the bench
//! starts. There the pair cap binds far harder, so profiling and clone
//! keying, which grow with the corpus, are most of the cost.
//! `fpir_text` prices the text layer every LLM4FP program crosses four
//! times (the simulated LLM parses its seed and prints the mutant, then
//! the campaign parses the response and prints the canonical source):
//! `parse_compute` over the same 160 sources, and `to_compute_source`
//! over the programs they parse to.
//!
//! All groups are saved into the CI bench-regression baseline
//! (`BENCH_hotpath.json`) and gated by `bench_compare`, so a slowdown on
//! the sealed path fails the PR.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use llm4fp::{ApproachKind, Campaign, CampaignConfig};
use llm4fp_compiler::interp::DEFAULT_FUEL;
use llm4fp_compiler::{
    compile, CompiledProgram, CompilerConfig, CompilerId, ExecScratch, Frontend, OptLevel,
    SealedProgram,
};
use llm4fp_difftest::{DiffTester, ExecEngine, MatrixScratch};
use llm4fp_fpir::{parse_compute, program_hash, to_compute_source, InputSet, Program};
use llm4fp_generator::{InputGenerator, VarityGenerator};
use llm4fp_metrics::{average_pairwise_codebleu, DiversityReport};
use llm4fp_orchestrator::wire::{read_frame, write_frame, ShardJob, WireRequest};
use llm4fp_orchestrator::{plan_shards, Orchestrator, ShardRunner};
use llm4fp_telemetry::TelemetrySpec;

const CORPUS: usize = 24;

fn corpus() -> Vec<(Program, InputSet)> {
    (0..CORPUS as u64)
        .map(|seed| {
            let program = VarityGenerator::new(seed * 7 + 1).generate();
            let inputs = InputGenerator::new(seed ^ 0xbe9c).generate(&program);
            (program, inputs)
        })
        .collect()
}

fn artifacts(corpus: &[(Program, InputSet)]) -> Vec<(CompiledProgram, SealedProgram, InputSet)> {
    let configs = [
        CompilerConfig::new(CompilerId::Gcc, OptLevel::O0Nofma),
        CompilerConfig::new(CompilerId::Clang, OptLevel::O2),
        CompilerConfig::new(CompilerId::Nvcc, OptLevel::O3Fastmath),
    ];
    corpus
        .iter()
        .flat_map(|(program, inputs)| {
            configs.iter().map(move |&config| {
                let artifact = compile(program, config).expect("varity programs compile");
                let sealed = artifact.seal().expect("varity programs seal");
                (artifact, sealed, inputs.clone())
            })
        })
        .collect()
}

fn bench_interp_vs_vm(c: &mut Criterion) {
    let mut group = c.benchmark_group("interp_vs_vm");
    group.sample_size(20);
    let prebuilt = artifacts(&corpus());

    group.bench_function("reference_interpreter", |b| {
        b.iter(|| {
            for (artifact, _, inputs) in &prebuilt {
                black_box(artifact.execute(inputs).ok());
            }
        })
    });
    group.bench_function("sealed_vm", |b| {
        let mut scratch = ExecScratch::new();
        b.iter(|| {
            for (_, sealed, inputs) in &prebuilt {
                black_box(sealed.execute_into(inputs, DEFAULT_FUEL, &mut scratch).ok());
            }
        })
    });
    // Seal + one execution: sealing has paid for itself on the first run.
    group.bench_function("seal_and_execute", |b| {
        let mut scratch = ExecScratch::new();
        b.iter(|| {
            for (artifact, _, inputs) in &prebuilt {
                let sealed = artifact.seal().expect("seals");
                black_box(sealed.execute_into(inputs, DEFAULT_FUEL, &mut scratch).ok());
            }
        })
    });
    group.finish();
}

fn bench_difftest_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("difftest_matrix");
    group.sample_size(10);
    let corpus = corpus();

    for (label, engine) in
        [("sealed_engine", ExecEngine::Sealed), ("reference_engine", ExecEngine::Reference)]
    {
        group.bench_function(label, |b| {
            let tester = DiffTester::new().with_engine(engine);
            b.iter(|| {
                for (program, inputs) in &corpus {
                    black_box(tester.run(program, inputs));
                }
            })
        });
    }

    // The worker-loop shape: one reused MatrixScratch across the corpus
    // (what each orchestrator shard does per program).
    group.bench_function("scratch_reuse_across_programs", |b| {
        let tester = DiffTester::new();
        let mut scratch = MatrixScratch::new();
        b.iter(|| {
            for (program, inputs) in &corpus {
                black_box(tester.run_with(program, inputs, &mut scratch));
            }
        })
    });

    // The same worker loop over LLM4FP's programs.
    let (sources, _) = llm4fp_corpus(160);
    let llm4fp: Vec<(Program, InputSet)> = sources
        .iter()
        .map(|source| {
            let program = parse_compute(source).expect("campaign sources parse");
            let inputs = InputGenerator::new(program_hash(&program)).generate(&program);
            (program, inputs)
        })
        .collect();
    group.bench_function("llm4fp_corpus_160", |b| {
        let tester = DiffTester::new();
        let mut scratch = MatrixScratch::new();
        b.iter(|| {
            for (program, inputs) in &llm4fp {
                black_box(tester.run_with(program, inputs, &mut scratch));
            }
        })
    });
    group.finish();
}

fn bench_seal_matrix(c: &mut Criterion) {
    let mut group = c.benchmark_group("seal_matrix");
    group.sample_size(20);
    let corpus = corpus();
    let frontends: Vec<Frontend> =
        corpus.iter().map(|(p, _)| Frontend::new(p).expect("varity programs validate")).collect();
    let matrix = CompilerConfig::full_matrix();

    // The PR 3 shape: every configuration seals independently (pass
    // pipeline + layout + flatten per configuration).
    group.bench_function("independent_18_seals", |b| {
        b.iter(|| {
            for frontend in &frontends {
                for &config in &matrix {
                    black_box(frontend.seal(config).ok());
                }
            }
        })
    });
    // Matrix-shared sealing: prefix-tree pass pipelines, one layout per
    // program.
    group.bench_function("seal_matrix_shared", |b| {
        b.iter(|| {
            for frontend in &frontends {
                black_box(frontend.seal_matrix(&matrix));
            }
        })
    });
    group.finish();
}

fn bench_telemetry_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let config =
        CampaignConfig::new(ApproachKind::Varity).with_budget(80).with_seed(1).with_threads(1);
    // `sharded_campaign_off` is the gated entry proving the disabled path
    // costs nothing measurable: telemetry off must track the pre-telemetry
    // sharded-campaign cost (every recording call is one `None` branch).
    // The metrics/trace series price what opting in actually buys.
    for (label, telemetry) in [
        ("sharded_campaign_off", TelemetrySpec::OFF),
        ("sharded_campaign_metrics", TelemetrySpec::METRICS),
        ("sharded_campaign_trace", TelemetrySpec::TRACE),
    ] {
        group.bench_function(label, |b| {
            let orchestrator =
                Orchestrator::new(config.clone()).shards(4).workers(2).telemetry(telemetry);
            b.iter(|| black_box(orchestrator.clone().run().unwrap()))
        });
    }
    group.finish();
}

fn bench_default_campaign(c: &mut Criterion) {
    let mut group = c.benchmark_group("default_campaign");
    group.sample_size(10);
    // What users run: a default `CampaignConfig` (no thread override) at
    // the ROADMAP's K=8, E=4 shape, on the default orchestrator options.
    let config = CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(400).with_seed(1);
    group.bench_function("llm4fp_400_k8_e4", |b| {
        let orchestrator = Orchestrator::new(config.clone()).shards(8).epochs(4);
        b.iter(|| black_box(orchestrator.clone().run().unwrap()))
    });
    group.finish();
}

fn bench_wire(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire");
    group.sample_size(10);
    // One LLM4FP shard paused at two barriers: the job frame a worker
    // receives carries the shard's whole checkpoint so far.
    let config =
        CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(2000).with_seed(1).with_threads(1);
    let spec = plan_shards(&config, 1)[0];
    let mut runner = ShardRunner::new(&config, spec, None);
    let mut done = 0;
    for programs in [200, 2000] {
        runner.run_segment(programs - done, |_| {});
        done = programs;
        let job = WireRequest::Job(Box::new(ShardJob {
            config: config.clone(),
            spec,
            segment: spec.budget - done,
            finish: true,
            checkpoint: Some(runner.checkpoint()),
            process_slots: 1,
            telemetry: false,
            lease: 0,
        }));
        let mut frame = Vec::new();
        write_frame(&mut frame, &job).expect("frames encode into memory");
        group.bench_function(format!("write_frame_{programs}"), |b| {
            let mut buf = Vec::with_capacity(frame.len());
            b.iter(|| {
                buf.clear();
                write_frame(&mut buf, &job).expect("frames encode into memory");
            })
        });
        group.bench_function(format!("read_frame_{programs}"), |b| {
            b.iter(|| read_frame::<WireRequest, _>(&mut frame.as_slice()).expect("frame decodes"))
        });
    }
    group.finish();
}

/// The `programs`-program LLM4FP corpus (seed 1) that Table 2's diversity
/// column scores, with the campaign's CodeBLEU pair cap.
fn llm4fp_corpus(programs: usize) -> (Vec<String>, usize) {
    let result = Campaign::new(
        CampaignConfig::new(ApproachKind::Llm4Fp)
            .with_budget(programs)
            .with_seed(1)
            .with_threads(1),
    )
    .run();
    (result.sources, result.config.max_codebleu_pairs)
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(10);
    let (sources, cap) = llm4fp_corpus(160);
    group.bench_function("pairwise_codebleu_160", |b| {
        b.iter(|| black_box(average_pairwise_codebleu(&sources, 1, cap)))
    });
    group.bench_function("diversity_report_160", |b| {
        b.iter(|| black_box(DiversityReport::measure(&sources, cap)))
    });
    let (sources, cap) = llm4fp_corpus(1000);
    group.bench_function("diversity_report_1000", |b| {
        b.iter(|| black_box(DiversityReport::measure(&sources, cap)))
    });
    group.finish();
}

fn bench_fpir_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("fpir_text");
    group.sample_size(10);
    let (sources, _) = llm4fp_corpus(160);
    let programs: Vec<Program> = sources.iter().filter_map(|s| parse_compute(s).ok()).collect();
    group.bench_function("parse_compute_160", |b| {
        b.iter(|| {
            for source in &sources {
                black_box(parse_compute(source).ok());
            }
        })
    });
    group.bench_function("to_compute_source_160", |b| {
        b.iter(|| {
            for program in &programs {
                black_box(to_compute_source(program));
            }
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_interp_vs_vm,
    bench_difftest_matrix,
    bench_seal_matrix,
    bench_telemetry_overhead,
    bench_default_campaign,
    bench_wire,
    bench_metrics,
    bench_fpir_text
);
criterion_main!(benches);
