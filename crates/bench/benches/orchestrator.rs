//! Orchestrator benchmarks: sequential driver vs sharded execution of the
//! same 200-program Varity campaign. The sharded/sequential pair is the
//! acceptance benchmark for the sharded engine: on a 4-core runner the
//! 8-shard configuration should finish at least ~2x faster than the
//! sequential baseline. On fewer cores, expect parity — the interesting
//! number there is the orchestration overhead, which should be negligible.

use criterion::{criterion_group, criterion_main, Criterion};
use llm4fp::{ApproachKind, Campaign, CampaignConfig};
use llm4fp_orchestrator::Orchestrator;

fn varity_200(threads: usize) -> CampaignConfig {
    CampaignConfig::new(ApproachKind::Varity).with_budget(200).with_seed(7).with_threads(threads)
}

fn bench_sharding(c: &mut Criterion) {
    let mut group = c.benchmark_group("orchestrator_varity_200");
    group.sample_size(10);

    group.bench_function("sequential_campaign", |b| {
        let config = varity_200(1);
        b.iter(|| Campaign::new(config.clone()).run())
    });
    for shards in [2usize, 4, 8] {
        group.bench_function(format!("sharded_k{shards}"), |b| {
            let orchestrator = Orchestrator::new(varity_200(1)).shards(shards);
            b.iter(|| orchestrator.clone().run().unwrap())
        });
    }
    // Feedback exchange adds E - 1 barrier synchronizations per campaign;
    // against sharded_k8 this prices the barrier overhead.
    group.bench_function("sharded_k8_e4_exchange", |b| {
        let orchestrator = Orchestrator::new(varity_200(1)).shards(8).epochs(4);
        b.iter(|| orchestrator.clone().run().unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_sharding);
criterion_main!(benches);
