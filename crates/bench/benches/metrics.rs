//! Diversity-metric benchmarks: one CodeBLEU pair, corpus-level averaging
//! and clone detection.

use criterion::{criterion_group, criterion_main, Criterion};
use llm4fp_generator::VarityGenerator;
use llm4fp_metrics::{average_pairwise_codebleu, codebleu, detect_clones, CodeBleuWeights};

fn corpus(n: usize) -> Vec<String> {
    let mut gen = VarityGenerator::new(31);
    (0..n).map(|_| llm4fp_fpir::to_compute_source(&gen.generate())).collect()
}

fn bench_metrics(c: &mut Criterion) {
    let mut group = c.benchmark_group("metrics");
    group.sample_size(20);
    let sources = corpus(40);

    group.bench_function("codebleu_single_pair", |b| {
        b.iter(|| codebleu(&sources[0], &sources[1], CodeBleuWeights::default()))
    });
    group.bench_function("pairwise_codebleu_40_programs", |b| {
        b.iter(|| average_pairwise_codebleu(&sources, 1, usize::MAX))
    });
    group.bench_function("clone_detection_40_programs", |b| b.iter(|| detect_clones(&sources)));
    group.finish();
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
