//! Differential-testing benchmark: the full 18-configuration matrix for
//! one grammar-guided program, on the caller's thread as campaigns run it.

use criterion::{criterion_group, criterion_main, Criterion};
use llm4fp_difftest::DiffTester;
use llm4fp_generator::{InputGenerator, LlmClient, PromptBuilder, SimulatedLlm};

fn bench_difftest(c: &mut Criterion) {
    let mut group = c.benchmark_group("difftest_matrix");
    group.sample_size(20);
    let mut llm = SimulatedLlm::new(21);
    let prompt = PromptBuilder::new(Default::default()).grammar_based();
    let program = llm4fp_fpir::parse_compute(&llm.generate(&prompt).source).unwrap();
    let inputs = InputGenerator::new(22).generate(&program);

    group.bench_function("full_matrix_sequential", |b| {
        let tester = DiffTester::new();
        b.iter(|| tester.run(&program, &inputs))
    });
    group.finish();
}

criterion_group!(benches, bench_difftest);
criterion_main!(benches);
