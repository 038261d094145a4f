//! The orchestrator's load-bearing guarantees, exercised end to end:
//!
//! * `K = 1` orchestrated runs match the sequential driver field for
//!   field (for any epoch count — single-shard exchange is a no-op);
//! * for any `(seed, K, E)`, results are bit-identical across worker
//!   counts;
//! * `E = 1` exactly reproduces the no-exchange sharded output (the
//!   independent-shard primitive `run_shard` + `merge_shards`);
//! * the result cache is semantically transparent (on/off agree);
//! * interrupted runs resume to bit-identical results — recomputing only
//!   the missing shards (`E = 1`) or restarting every shard from the
//!   latest exchange barrier whose checkpoints all load (`E > 1`);
//! * the multi-campaign scheduler agrees with individual orchestration,
//!   with and without exchange;
//! * at `K >= 4`, exchange feeds every shard from the global pool (the
//!   paper's feedback loop at campaign scale);
//! * every guarantee above extends to the **external** (real-compiler)
//!   backend, exercised hermetically through the `fakecc` mock
//!   toolchain: `K = 1 ≡` sequential, bit-identical recorded results
//!   across worker counts and process-slot bounds, and cache hits that
//!   demonstrably skip compiler/binary process spawns.

use std::path::PathBuf;
use std::time::Duration;

use llm4fp::{ApproachKind, Campaign, CampaignConfig, CampaignResult};
use llm4fp_orchestrator::{
    merge_shards, plan_shards, run_shard, OrchestratedResult, Orchestrator, OrchestratorError,
    OrchestratorOptions, RunDir, RunManifest, Scheduler, ShardCtx,
};

fn config(approach: ApproachKind, budget: usize, seed: u64) -> CampaignConfig {
    // threads = 1 keeps each shard cheap; the pool provides parallelism.
    CampaignConfig::new(approach).with_budget(budget).with_seed(seed).with_threads(1)
}

fn options(workers: usize, cache: bool, epochs: usize) -> OrchestratorOptions {
    OrchestratorOptions { workers, cache, epochs, run_dir: None, ..Default::default() }
}

/// The builder invocation most tests drive: explicit options bag, shard
/// count, in-memory run.
fn orchestrate(
    config: &CampaignConfig,
    shards: usize,
    opts: OrchestratorOptions,
) -> Result<OrchestratedResult, OrchestratorError> {
    Orchestrator::new(config.clone()).options(opts).shards(shards).run()
}

fn run_sharded(config: &CampaignConfig, shards: usize) -> CampaignResult {
    Orchestrator::new(config.clone()).shards(shards).run().unwrap().result
}

fn run_sharded_epochs(config: &CampaignConfig, shards: usize, epochs: usize) -> CampaignResult {
    Orchestrator::new(config.clone()).shards(shards).epochs(epochs).run().unwrap().result
}

fn assert_results_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.records, b.records, "{what}: records differ");
    assert_eq!(a.sources, b.sources, "{what}: sources differ");
    assert_eq!(a.successful_sources, b.successful_sources, "{what}: successful sets differ");
    assert_eq!(a.aggregates, b.aggregates, "{what}: aggregates differ");
    assert_eq!(a.generation_failures, b.generation_failures, "{what}: failures differ");
    assert_eq!(a.llm_calls, b.llm_calls, "{what}: llm calls differ");
    assert_eq!(a.simulated_llm_time, b.simulated_llm_time, "{what}: llm time differs");
}

#[test]
fn k1_matches_the_sequential_campaign_exactly() {
    for approach in [ApproachKind::Varity, ApproachKind::GrammarGuided, ApproachKind::Llm4Fp] {
        let config = config(approach, 24, 11);
        let sequential = Campaign::new(config.clone()).run();
        let orchestrated = run_sharded(&config, 1);
        assert_results_identical(&orchestrated, &sequential, &format!("K=1 {:?}", config.approach));
        // A single shard exchanges only with itself: structurally a
        // no-op, so any epoch count still reproduces the sequential run.
        let epoched = run_sharded_epochs(&config, 1, 4);
        assert_results_identical(&epoched, &sequential, &format!("K=1 E=4 {:?}", config.approach));
    }
}

#[test]
fn e1_reproduces_the_no_exchange_sharded_output() {
    // The independent-shard primitive (PR 1's code path) is the
    // reference; one-epoch orchestration must reproduce it bit for bit
    // for every shard count.
    let config = config(ApproachKind::Llm4Fp, 30, 7);
    for shards in [2usize, 4, 5] {
        let outputs: Vec<_> = plan_shards(&config, shards)
            .iter()
            .map(|spec| run_shard(spec, &ShardCtx::new(&config)))
            .collect();
        let reference = merge_shards(&config, outputs, Duration::ZERO);
        let orchestrated = orchestrate(&config, shards, options(4, false, 1)).unwrap();
        assert_results_identical(&orchestrated.result, &reference, &format!("E=1 K={shards}"));
    }
}

#[test]
fn sharded_runs_are_bit_identical_across_worker_counts() {
    let config = config(ApproachKind::Llm4Fp, 30, 7);
    for epochs in [1usize, 4, 16] {
        for shards in [1usize, 2, 4] {
            let reference = orchestrate(&config, shards, options(1, true, epochs)).unwrap();
            assert_eq!(reference.stats.shards, shards.min(config.programs));
            assert_eq!(reference.stats.epochs, epochs);
            for workers in [2usize, 8] {
                let other = orchestrate(&config, shards, options(workers, true, epochs)).unwrap();
                assert_results_identical(
                    &other.result,
                    &reference.result,
                    &format!("K={shards} E={epochs} workers={workers}"),
                );
            }
        }
    }
}

/// FNV-1a over a sequence of strings, each terminated by a byte no
/// UTF-8 text contains, so moving a boundary changes the digest.
fn digest<'a>(items: impl IntoIterator<Item = &'a str>) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for item in items {
        for byte in item.bytes().chain([0xff]) {
            hash = (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

#[test]
fn exchanged_campaigns_are_pinned_by_value() {
    // Worker-count and executor comparisons cannot see a change to the
    // barrier's merge order that every executor shares: each side of the
    // comparison moves together. Literal digests of the successful set
    // and the record ids catch it.
    for (budget, shards, epochs, expected) in [
        (64usize, 4usize, 4usize, (0x3702_1ff8_351e_b8fdu64, 58usize, 0x721b_4083_d494_a874u64)),
        (128, 8, 16, (0xeac5_76f1_9f84_7b90, 109, 0xbf45_d25a_95d0_812d)),
    ] {
        let result = run_sharded_epochs(&config(ApproachKind::Llm4Fp, budget, 17), shards, epochs);
        let pinned = (
            digest(result.successful_sources.iter().map(String::as_str)),
            result.successful_sources.len(),
            digest(result.records.iter().map(|r| r.program_id.as_str())),
        );
        assert_eq!(pinned, expected, "K={shards} E={epochs}");
    }
}

#[test]
fn different_shard_counts_account_the_same_totals() {
    // K and E change the decomposition (so exact bits legitimately differ
    // between decompositions), but the budget accounting must hold for
    // every (K, E).
    let config = config(ApproachKind::Varity, 25, 13);
    for shards in [1usize, 2, 4, 7] {
        for epochs in [1usize, 3, 4] {
            let result = run_sharded_epochs(&config, shards, epochs);
            assert_eq!(result.aggregates.programs, 25, "K={shards} E={epochs}");
            assert_eq!(result.aggregates.total_comparisons, 25 * 18, "K={shards} E={epochs}");
            assert_eq!(result.records.len(), 25, "K={shards} E={epochs}");
            assert_eq!(
                result.sources.len() + result.generation_failures,
                25,
                "K={shards} E={epochs}"
            );
            for (i, record) in result.records.iter().enumerate() {
                assert_eq!(record.index, i, "K={shards} E={epochs}: record order broken");
            }
        }
    }
}

#[test]
fn exchange_broadcasts_the_global_pool_at_k4() {
    // The point of exchange: from epoch 1 on, every shard's feedback
    // mutation draws from the union of all shards' findings. The merged
    // successful set must still be duplicate-free, and the exchanged run
    // must actually diverge from the isolated-feedback run (the injected
    // pool changes seed selection).
    let config = config(ApproachKind::Llm4Fp, 48, 9);
    let isolated = run_sharded_epochs(&config, 4, 1);
    let exchanged = run_sharded_epochs(&config, 4, 4);
    assert_eq!(exchanged.aggregates.programs, isolated.aggregates.programs);
    assert_ne!(
        exchanged.records, isolated.records,
        "exchange must alter feedback-seed selection at K=4"
    );
    let mut hashes: Vec<u64> =
        exchanged.successful_sources.iter().map(|s| llm4fp_fpir::source_hash(s)).collect();
    let before = hashes.len();
    hashes.sort_unstable();
    hashes.dedup();
    assert_eq!(hashes.len(), before, "merged successful set contains duplicates");
    // Feedback mutation fired in the exchanged run.
    assert!(exchanged.records.iter().any(|r| r.strategy == "feedback-mutation"));
}

#[test]
fn cache_is_semantically_transparent_and_reports_stats() {
    let config = config(ApproachKind::Llm4Fp, 40, 5);
    for epochs in [1usize, 4] {
        let cached = orchestrate(&config, 4, options(4, true, epochs)).unwrap();
        let uncached = orchestrate(&config, 4, options(4, false, epochs)).unwrap();
        assert_results_identical(
            &cached.result,
            &uncached.result,
            &format!("cache on/off E={epochs}"),
        );
        let stats = cached.stats.cache.expect("cache stats present when caching is on");
        assert_eq!(
            stats.misses + stats.hits,
            cached.result.sources.len() as u64,
            "every valid program performs exactly one cache lookup"
        );
        assert!(uncached.stats.cache.is_none());
    }
}

#[test]
fn interrupted_runs_resume_to_identical_results() {
    let config = config(ApproachKind::Llm4Fp, 28, 17);
    let shards = 4;
    let root = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("resume-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Reference: one uninterrupted, persisted run.
    let full = Orchestrator::new(config.clone())
        .shards(shards)
        .workers(2)
        .run_dir(root.clone())
        .run()
        .unwrap();
    assert_eq!(full.stats.shards_computed, shards);
    assert_eq!(full.stats.shards_reused, 0);

    // Simulate an interruption: delete one completed shard and truncate
    // another mid-file, cutting into its summary line.
    std::fs::remove_file(root.join("shards").join("shard-0001.jsonl")).unwrap();
    let truncated_path = root.join("shards").join("shard-0002.jsonl");
    let text = std::fs::read_to_string(&truncated_path).unwrap();
    std::fs::write(&truncated_path, &text[..text.len() / 2]).unwrap();

    let resumed = Orchestrator::resume(&root).unwrap();
    assert_eq!(resumed.stats.shards_reused, shards - 2, "two shards had to recompute");
    assert_eq!(resumed.stats.shards_computed, 2);
    assert_results_identical(&resumed.result, &full.result, "resume");

    // The merged result and run summary on disk match too.
    let dir = RunDir::open(&root, &RunManifest::new(config.clone(), shards, 1)).unwrap();
    let persisted = dir.load_result().expect("result.json written");
    assert_results_identical(&persisted, &full.result, "persisted result");
    let summary = dir.load_summary().expect("summary.json written");
    assert_eq!(summary.cache, resumed.stats.cache, "summary records cache hit stats");
    // Run dirs written before the in-process fallback was removed carry
    // its key; they still load, so `trace_report` keeps reading them.
    let text = std::fs::read_to_string(root.join("summary.json")).unwrap();
    let old = text.replacen('{', r#"{"fell_back_to_in_process": false, "#, 1);
    std::fs::write(root.join("summary.json"), old).unwrap();
    assert_eq!(dir.load_summary(), Some(summary), "an old summary.json still loads");

    let _ = std::fs::remove_dir_all(&root);
}

/// Simulate a kill after epoch 1 of a persisted multi-epoch run: nothing
/// past barrier 1 exists yet — no shard summaries, no merged result, no
/// barrier-2 state.
fn kill_after_barrier_1(root: &std::path::Path, shards: usize) {
    std::fs::remove_file(root.join("result.json")).unwrap();
    std::fs::remove_file(root.join("summary.json")).unwrap();
    for shard in 0..shards {
        std::fs::remove_file(root.join("shards").join(format!("shard-{shard:04}.jsonl"))).unwrap();
        std::fs::remove_file(
            root.join("checkpoints").join(format!("shard-{shard:04}-epoch-0002.json")),
        )
        .unwrap();
    }
}

#[test]
fn interrupted_multi_epoch_runs_resume_from_the_latest_barrier() {
    let config = config(ApproachKind::Llm4Fp, 32, 27);
    let (shards, epochs) = (4usize, 4usize);
    let root = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("resume-epoch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    // Reference: one uninterrupted, persisted exchange run.
    let full = Orchestrator::new(config.clone())
        .shards(shards)
        .workers(2)
        .epochs(epochs)
        .run_dir(root.clone())
        .run()
        .unwrap();
    assert_eq!(full.stats.epochs_restored, 0);

    kill_after_barrier_1(&root, shards);

    let resumed = Orchestrator::resume(&root).unwrap();
    assert_eq!(
        resumed.stats.epochs_restored, 2,
        "epochs 0 and 1 restore from barrier 1; only epochs 2..4 recompute"
    );
    assert_eq!(resumed.stats.shards_computed, shards);
    assert_results_identical(&resumed.result, &full.result, "multi-epoch resume");

    // Resuming the now-complete run reuses every shard outright.
    let again = Orchestrator::resume(&root).unwrap();
    assert_eq!(again.stats.shards_reused, shards);
    assert_eq!(again.stats.shards_computed, 0);
    assert_results_identical(&again.result, &full.result, "complete-run reuse");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn leftover_epoch_pool_files_never_decide_restorability() {
    // Older builds also copied the exchange pool to `epochs/` at every
    // barrier. The checkpoints already hold the pool, so barriers persist
    // nothing else, and a leftover pool file — even one torn by an older
    // binary's crash — never shortens a resume.
    let config = config(ApproachKind::Llm4Fp, 32, 27);
    let (shards, epochs) = (4usize, 4usize);
    let root = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("leftover-pool-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);

    let full = Orchestrator::new(config.clone())
        .shards(shards)
        .workers(2)
        .epochs(epochs)
        .run_dir(root.clone())
        .run()
        .unwrap();
    assert!(!root.join("epochs").exists(), "barriers persist checkpoints only");

    kill_after_barrier_1(&root, shards);
    std::fs::create_dir_all(root.join("epochs")).unwrap();
    std::fs::write(root.join("epochs").join("epoch-0001.json"), "{truncated").unwrap();

    let resumed = Orchestrator::resume(&root).unwrap();
    assert_eq!(
        resumed.stats.epochs_restored, 2,
        "barrier 1's checkpoints all load, so epochs 0 and 1 restore"
    );
    assert_results_identical(&resumed.result, &full.result, "resume past a torn pool file");

    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mismatched_manifests_refuse_to_mix_runs() {
    let root: PathBuf = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("mismatch-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let config_a = config(ApproachKind::Varity, 8, 1);
    let persisted = |epochs: usize, root: PathBuf| OrchestratorOptions {
        workers: 1,
        cache: false,
        epochs,
        run_dir: Some(root),
        ..Default::default()
    };
    orchestrate(&config_a, 2, persisted(1, root.clone())).unwrap();
    // Same dir, different seed: must be refused, not silently merged.
    let config_b = config(ApproachKind::Varity, 8, 2);
    let err = orchestrate(&config_b, 2, persisted(1, root.clone()));
    assert!(err.is_err(), "mismatched manifest must error");
    // Same config, different epoch count: exchanged and non-exchanged
    // outputs differ, so this must be refused too.
    let err = orchestrate(&config_a, 2, persisted(4, root.clone()));
    assert!(err.is_err(), "mismatched epoch count must error");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scheduler_suite_matches_individual_orchestration() {
    let configs: Vec<CampaignConfig> =
        ApproachKind::ALL.iter().map(|&a| config(a, 16, 21)).collect();
    for epochs in [1usize, 2] {
        let suite = Scheduler::new(options(4, true, epochs)).shards(2).run(&configs).unwrap();
        assert_eq!(suite.len(), configs.len());
        for (cfg, orchestrated) in configs.iter().zip(&suite) {
            let individual = orchestrate(cfg, 2, options(1, false, epochs)).unwrap();
            assert_results_identical(
                &orchestrated.result,
                &individual.result,
                &format!("suite {:?} E={epochs}", cfg.approach),
            );
            assert_eq!(orchestrated.result.config.approach, cfg.approach);
            // The accounting agrees too. (`cache` is left out: campaigns
            // with equal test contexts share one cache in a suite.)
            let (s, i) = (&orchestrated.stats, &individual.stats);
            let what = format!("suite stats {:?} E={epochs}", cfg.approach);
            assert_eq!(s.shards, i.shards, "{what}: shards");
            assert_eq!(s.epochs, i.epochs, "{what}: epochs");
            assert_eq!(s.shards_computed, i.shards_computed, "{what}: shards_computed");
            assert_eq!(s.shards_reused, i.shards_reused, "{what}: shards_reused");
            assert_eq!(s.epochs_restored, i.epochs_restored, "{what}: epochs_restored");
            assert_eq!(s.failures, i.failures, "{what}: failures");
            assert_eq!(s.supervision, i.supervision, "{what}: supervision");
        }
    }
}

/// External-backend invariants, hermetic via the `fakecc` mock compiler.
#[cfg(unix)]
mod external_backend {
    use super::*;
    use std::path::Path;

    use llm4fp::{BackendSpec, ExternalBackendSpec};
    use llm4fp_extcc::fakecc;

    fn fake_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir()
            .join("llm4fp-orchestrator-tests")
            .join(format!("fakecc-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// A campaign over a two-personality fake toolchain installed in
    /// `dir`. `threads = 1` keeps `fakecc.log` counting exact.
    fn fake_config(dir: &Path, approach: ApproachKind, budget: usize, seed: u64) -> CampaignConfig {
        let spec = ExternalBackendSpec::new(fakecc::install_pair(dir).expect("install fakecc"));
        config(approach, budget, seed).with_backend(BackendSpec::External(spec))
    }

    fn ext_options(workers: usize, cache: bool, epochs: usize) -> OrchestratorOptions {
        OrchestratorOptions { workers, cache, epochs, ..OrchestratorOptions::default() }
    }

    #[test]
    fn external_k1_matches_the_sequential_campaign() {
        let dir = fake_dir("k1");
        let config = fake_config(&dir, ApproachKind::Llm4Fp, 10, 11);
        let sequential = Campaign::new(config.clone()).run();
        assert!(
            sequential.aggregates.inconsistencies > 0,
            "fake toolchain must produce findings for the feedback loop"
        );
        let orchestrated = run_sharded(&config, 1);
        assert_results_identical(&orchestrated, &sequential, "external K=1");
        // Single-shard exchange stays a structural no-op externally too.
        let epoched = run_sharded_epochs(&config, 1, 3);
        assert_results_identical(&epoched, &sequential, "external K=1 E=3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn external_runs_are_bit_identical_across_worker_counts() {
        let dir = fake_dir("workers");
        let config = fake_config(&dir, ApproachKind::Llm4Fp, 8, 7);
        for epochs in [1usize, 2] {
            let reference = orchestrate(&config, 2, ext_options(1, true, epochs)).unwrap();
            let other = orchestrate(&config, 2, ext_options(4, true, epochs)).unwrap();
            assert_results_identical(
                &other.result,
                &reference.result,
                &format!("external E={epochs} workers=4"),
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn external_cache_hits_skip_fakecc_process_spawns() {
        // The acceptance criterion: a duplicate-heavy campaign on the
        // external backend demonstrably skips process spawns on cache
        // hits, counted via fakecc's invocation log. Direct-Prompt's
        // unguided sampling repeats knowledge-base programs outright.
        let dir = fake_dir("cache");
        let config = fake_config(&dir, ApproachKind::DirectPrompt, 30, 5);
        let configs_per_program = (config.compilers.len() * config.levels.len()) as u64;

        // workers = 1 keeps cache counting exact (no double-computed
        // misses) — the bit-identity across worker counts is pinned by
        // the test above.
        let cached = orchestrate(&config, 2, ext_options(1, true, 1)).unwrap();
        let stats = cached.stats.cache.expect("cache stats recorded");
        assert!(stats.hits > 0, "Direct-Prompt budget 30 must contain duplicates");
        assert_eq!(
            fakecc::compile_count(&dir),
            stats.misses * configs_per_program,
            "only cache misses may spawn the compiler; every hit skips the \
             full {configs_per_program}-config matrix"
        );
        assert_eq!(
            fakecc::run_count(&dir),
            stats.misses * configs_per_program,
            "one binary spawn per compiled configuration (single input set)"
        );

        // And the cache stays semantically transparent externally.
        let uncached = orchestrate(&config, 2, ext_options(1, false, 1)).unwrap();
        assert_results_identical(&cached.result, &uncached.result, "external cache on/off");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mixed_virtual_and_external_suites_schedule_together() {
        // The mixed regime the process pool exists for: one virtual and
        // one external campaign share the scheduler's worker pool; the
        // virtual side stays on the sealed VM (its results match a
        // virtual-only run bit for bit) while the external side is
        // throttled to one process slot.
        let dir = fake_dir("mixed");
        let virtual_config = config(ApproachKind::Llm4Fp, 16, 21);
        let external_config = fake_config(&dir, ApproachKind::GrammarGuided, 6, 21);
        let suite = Scheduler::new(ext_options(4, true, 2))
            .shards(2)
            .run(&[virtual_config.clone(), external_config.clone()])
            .unwrap();
        assert_eq!(suite.len(), 2);
        for (cfg, orchestrated) in [&virtual_config, &external_config].into_iter().zip(&suite) {
            let individual = orchestrate(cfg, 2, ext_options(1, false, 2)).unwrap();
            assert_results_identical(
                &orchestrated.result,
                &individual.result,
                &format!("mixed suite {:?}", cfg.approach),
            );
        }
        // The two campaigns must not have shared a cache (different
        // backends => different test contexts), so each reports its own
        // lookup totals.
        let virtual_stats = suite[0].stats.cache.expect("virtual cache stats");
        assert_eq!(virtual_stats.hits + virtual_stats.misses, suite[0].result.sources.len() as u64);
        let external_stats = suite[1].stats.cache.expect("external cache stats");
        assert_eq!(
            external_stats.hits + external_stats.misses,
            suite[1].result.sources.len() as u64
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn zero_workers_is_a_typed_error_everywhere() {
    // The 0.3 API contract: `workers == 0` is a configuration mistake
    // and must surface as `InvalidWorkers`, not a silent clamp — from
    // both the single-campaign builder and the suite scheduler.
    let cfg = config(ApproachKind::Varity, 4, 1);
    let err = Orchestrator::new(cfg.clone()).workers(0).run().unwrap_err();
    assert!(matches!(err, OrchestratorError::InvalidWorkers), "got {err}");
    let err = orchestrate(&cfg, 2, options(0, false, 1)).unwrap_err();
    assert!(matches!(err, OrchestratorError::InvalidWorkers), "got {err}");
    let err = Scheduler::new(options(0, false, 1)).run(&[cfg]).unwrap_err();
    assert!(matches!(err, OrchestratorError::InvalidWorkers), "got {err}");
}

#[test]
fn shard_plans_cover_the_budget_without_overlap() {
    let config = config(ApproachKind::Varity, 103, 99);
    for shards in [1usize, 2, 3, 8, 50, 103, 200] {
        let specs = plan_shards(&config, shards);
        assert!(specs.len() <= 103);
        assert_eq!(specs.iter().map(|s| s.budget).sum::<usize>(), 103, "K={shards}");
        let mut next = 0;
        for spec in &specs {
            assert_eq!(spec.offset, next, "K={shards}: offsets must tile the budget");
            next += spec.budget;
        }
    }
}
