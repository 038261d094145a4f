//! Crash-safety chaos tests: runs that die, lie, or rot on disk must
//! either recover bit-identically or fail with a typed error — never
//! silently produce different results.
//!
//! The damage shapes here are the ones a crash or a failing disk leaves
//! behind: torn JSONL lines, binary garbage from a torn overwrite,
//! truncated barrier checkpoints, stale `.tmp` stragglers, unwritable
//! artifact paths, and manifests from a different schema generation.
//! The injected-at-runtime counterpart ([`PersistFault::TornWrite`])
//! drives the same recovery paths from the writing side.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

use llm4fp::{ApproachKind, CampaignConfig, CampaignResult};
use llm4fp_orchestrator::{
    FaultPlan, OrchestratedResult, Orchestrator, OrchestratorError, PersistError, PersistFault,
    RunDir, RunManifest, SupervisionConfig, WorkerExecutor, WorkerFault, MANIFEST_SCHEMA,
};
use serde::{Number, Value};

fn config(approach: ApproachKind, budget: usize, seed: u64) -> CampaignConfig {
    CampaignConfig::new(approach).with_budget(budget).with_seed(seed).with_threads(1)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_results_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.records, b.records, "{what}: records differ");
    assert_eq!(a.sources, b.sources, "{what}: sources differ");
    assert_eq!(a.successful_sources, b.successful_sources, "{what}: successful sets differ");
    assert_eq!(a.aggregates, b.aggregates, "{what}: aggregates differ");
}

/// A complete, persisted multi-epoch reference run.
fn persisted_run(config: &CampaignConfig, root: &Path, epochs: usize) -> OrchestratedResult {
    Orchestrator::new(config.clone())
        .shards(3)
        .workers(2)
        .epochs(epochs)
        .run_dir(root.to_path_buf())
        .run()
        .unwrap()
}

/// Force a resume to actually recompute by deleting the completion
/// artifacts (a finished run would otherwise just reload `result.json`).
fn force_recompute(root: &Path) {
    let _ = std::fs::remove_file(root.join("result.json"));
    let _ = std::fs::remove_file(root.join("summary.json"));
}

#[test]
fn resume_survives_torn_tails_and_binary_garbage_in_shard_files() {
    let config = config(ApproachKind::Llm4Fp, 24, 31);
    let root = temp_dir("torn-tail");
    let full = persisted_run(&config, &root, 1);
    force_recompute(&root);

    // Shard 0: the tail is a half-written JSON line, as a torn
    // non-atomic write leaves it. Shard 1: a torn binary overwrite —
    // non-UTF-8 garbage splattered over the tail. Neither is corruption:
    // the shards recompute and the merged result is bit-identical.
    let shard0 = root.join("shards").join("shard-0000.jsonl");
    let mut text = std::fs::read_to_string(&shard0).unwrap();
    let keep = text.len() - text.len() / 3;
    text.truncate(keep);
    std::fs::write(&shard0, text).unwrap();

    let shard1 = root.join("shards").join("shard-0001.jsonl");
    let mut bytes = std::fs::read(&shard1).unwrap();
    let tail = bytes.len() / 2;
    for b in &mut bytes[tail..] {
        *b = 0xFF;
    }
    std::fs::write(&shard1, bytes).unwrap();

    let resumed = Orchestrator::resume(&root).unwrap();
    assert_eq!(resumed.stats.shards_reused, 1, "only the undamaged shard is reused");
    assert_eq!(resumed.stats.shards_computed, 2, "both damaged shards recompute");
    assert_results_identical(&resumed.result, &full.result, "torn-tail resume");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn truncated_checkpoints_fall_back_to_an_earlier_barrier() {
    let config = config(ApproachKind::Llm4Fp, 24, 37);
    let (shards, epochs) = (3usize, 3usize);
    let root = temp_dir("truncated-checkpoint");
    let full = persisted_run(&config, &root, epochs);
    force_recompute(&root);
    // Make every shard recompute so the barrier restore actually runs.
    for shard in 0..shards {
        let _ = std::fs::remove_file(root.join("shards").join(format!("shard-{shard:04}.jsonl")));
    }

    // The latest barrier (epoch 1) has one checkpoint cut in half — a
    // crash during a torn (non-atomic) write. That disqualifies barrier
    // 1 only: resume restores from barrier 0 and recomputes epochs 1-2,
    // with bit-identical results.
    let dir = RunDir::open(&root, &RunManifest::new(config.clone(), shards, epochs)).unwrap();
    let barrier = |dir: &RunDir| dir.latest_restorable_epoch(shards, epochs).map(|(b, _)| b);
    assert_eq!(barrier(&dir), Some(1));
    let damaged = root.join("checkpoints").join("shard-0002-epoch-0001.json");
    let bytes = std::fs::read(&damaged).unwrap();
    std::fs::write(&damaged, &bytes[..bytes.len() / 2]).unwrap();
    assert_eq!(
        barrier(&dir),
        Some(0),
        "a truncated checkpoint disqualifies its barrier, not the whole run dir"
    );

    let resumed = Orchestrator::resume(&root).unwrap();
    assert_eq!(resumed.stats.epochs_restored, 1, "restored through barrier 0");
    assert_results_identical(&resumed.result, &full.result, "earlier-barrier resume");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn newer_schema_manifests_are_refused_with_a_typed_error() {
    let config = config(ApproachKind::Varity, 8, 41);
    let root = temp_dir("newer-schema");
    persisted_run(&config, &root, 1);

    // A future build bumped the schema: this build must refuse the dir
    // outright rather than guess at the layout.
    let manifest_path = root.join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    let Value::Obj(mut map) = serde_json::parse(&text).unwrap() else {
        panic!("manifest.json is an object")
    };
    map.insert("schema".to_string(), Value::Num(Number::U(u64::from(MANIFEST_SCHEMA) + 7)));
    std::fs::write(&manifest_path, serde_json::to_string(&Value::Obj(map)).unwrap()).unwrap();

    let err = Orchestrator::resume(&root).expect_err("newer schema must refuse to open");
    match err {
        OrchestratorError::Persist(PersistError::SchemaMismatch { found, supported }) => {
            assert_eq!(found, MANIFEST_SCHEMA + 7);
            assert_eq!(supported, MANIFEST_SCHEMA);
        }
        other => panic!("expected SchemaMismatch, got {other}"),
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn pre_versioning_manifests_still_resume_bit_identically() {
    let config = config(ApproachKind::Llm4Fp, 16, 43);
    let root = temp_dir("schema-v1");
    let full = persisted_run(&config, &root, 2);
    force_recompute(&root);

    // Strip the schema field entirely — the manifest a pre-versioning
    // build wrote. It reads as schema 1 and resumes normally.
    let manifest_path = root.join("manifest.json");
    let text = std::fs::read_to_string(&manifest_path).unwrap();
    let Value::Obj(mut map) = serde_json::parse(&text).unwrap() else {
        panic!("manifest.json is an object")
    };
    map.remove("schema");
    std::fs::write(&manifest_path, serde_json::to_string(&Value::Obj(map)).unwrap()).unwrap();
    assert_eq!(RunDir::read_manifest(&root).unwrap().schema_version(), 1);

    let resumed = Orchestrator::resume(&root).unwrap();
    assert_results_identical(&resumed.result, &full.result, "schema-1 resume");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn manifests_carrying_four_threads_resume_bit_identically() {
    // Manifests carry `threads`, which sizes only the CodeBLEU report: a
    // run dir written with `"threads": 4` resumes under the same schema
    // and matches a single-threaded run bit for bit. The same holds for a
    // manifest carrying `"seal_mode": "Raw"`, which `--no-seal-opt` used
    // to persist and which sealing now ignores.
    let config = config(ApproachKind::Llm4Fp, 24, 53).with_threads(4);
    let single =
        Orchestrator::new(config.clone().with_threads(1)).shards(3).epochs(2).run().unwrap();
    for seal_mode in [None, Some("Raw")] {
        let root = temp_dir(&format!("threads-4-{}", seal_mode.unwrap_or("default")));
        let full = persisted_run(&config, &root, 2);
        force_recompute(&root);
        for shard in 0..3 {
            let _ =
                std::fs::remove_file(root.join("shards").join(format!("shard-{shard:04}.jsonl")));
        }
        if let Some(mode) = seal_mode {
            let manifest_path = root.join("manifest.json");
            let text = std::fs::read_to_string(&manifest_path).unwrap();
            let Value::Obj(mut map) = serde_json::parse(&text).unwrap() else {
                panic!("manifest.json is an object")
            };
            let Some(Value::Obj(config)) = map.get_mut("config") else {
                panic!("manifest.json carries the campaign config")
            };
            config.insert("seal_mode".to_string(), Value::Str(mode.to_string()));
            std::fs::write(&manifest_path, serde_json::to_string(&Value::Obj(map)).unwrap())
                .unwrap();
        }
        let manifest = RunDir::read_manifest(&root).unwrap();
        assert_eq!(manifest.config.threads, 4);
        assert_eq!(manifest.schema_version(), MANIFEST_SCHEMA);
        let persisted_mode = serde_json::to_string(&manifest.config.seal_mode).unwrap();
        assert_eq!(persisted_mode, format!("\"{}\"", seal_mode.unwrap_or("Optimized")));

        let resumed = Orchestrator::resume(&root).unwrap();
        let what = format!("threads-4 resume, seal_mode {seal_mode:?}");
        assert_eq!(resumed.stats.shards_computed, 3, "{what}: every shard recomputes");
        assert_results_identical(&resumed.result, &full.result, &what);
        assert_results_identical(&resumed.result, &single.result, &format!("{what} vs 1 thread"));
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn torn_write_faults_are_counted_and_leave_results_bit_identical() {
    let config = config(ApproachKind::Llm4Fp, 24, 47);
    let reference = Orchestrator::new(config.clone()).shards(3).epochs(3).run().unwrap();

    // Inject a torn checkpoint write at runtime: the artifact lands half-
    // written (bypassing temp+rename), the failure is counted — never
    // silent — and the run completes with bit-identical results, because
    // barrier artifacts are best-effort redundancy, not the results path.
    let root = temp_dir("torn-write-fault");
    let torn = Orchestrator::new(config.clone())
        .shards(3)
        .epochs(3)
        .run_dir(root.clone())
        .persist_faults(vec![PersistFault::TornWrite("checkpoint".into())])
        .run()
        .unwrap();
    assert_results_identical(&torn.result, &reference.result, "run under a torn-write fault");
    assert!(torn.stats.persist_errors >= 1, "the torn write is counted, not silent");
    let summary = RunDir::open(&root, &RunManifest::new(config.clone(), 3, 3))
        .unwrap()
        .load_summary()
        .expect("summary.json written");
    assert_eq!(summary.persist_errors, torn.stats.persist_errors, "summary.json reports it");

    // The damaged checkpoint is exactly the resume shape the earlier
    // tests pin: a subsequent resume still reproduces the run.
    force_recompute(&root);
    let resumed = Orchestrator::resume(&root).unwrap();
    assert_results_identical(&resumed.result, &reference.result, "resume after torn write");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn unwritable_shard_files_are_counted_not_silent() {
    let config = config(ApproachKind::Llm4Fp, 24, 61);
    let reference = Orchestrator::new(config.clone()).shards(4).run().unwrap();

    // A directory squatting on shard 1's file makes that shard's write
    // fail: the run still completes with bit-identical results, and the
    // failure is counted in the stats and in summary.json.
    let root = temp_dir("unwritable-shard");
    std::fs::create_dir_all(root.join("shards").join("shard-0001.jsonl")).unwrap();
    let run = Orchestrator::new(config.clone()).shards(4).run_dir(root.clone()).run().unwrap();
    assert_results_identical(&run.result, &reference.result, "run with an unwritable shard file");
    assert_eq!(run.stats.persist_errors, 1, "the failed shard write is counted, not silent");
    let summary = RunDir::open(&root, &RunManifest::new(config.clone(), 4, 1))
        .unwrap()
        .load_summary()
        .expect("summary.json written");
    assert_eq!(summary.persist_errors, 1, "summary.json reports it");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn torn_shard_writes_fire_once_and_only_that_shard_recomputes() {
    let config = config(ApproachKind::Llm4Fp, 24, 67);
    let reference = Orchestrator::new(config.clone()).shards(4).run().unwrap();

    // Shard 1's file lands torn: the run's own result never reads it back,
    // so it is bit-identical, and the tear is counted exactly once.
    let root = temp_dir("torn-shard-write");
    let torn = Orchestrator::new(config.clone())
        .shards(4)
        .run_dir(root.clone())
        .persist_faults(vec![PersistFault::TornWrite("shards/shard-0001".into())])
        .run()
        .unwrap();
    assert_results_identical(&torn.result, &reference.result, "run under a torn shard write");
    assert_eq!(torn.stats.persist_errors, 1, "the torn shard write is counted once");

    // On resume the torn file is incomplete, so exactly that shard
    // recomputes; the other three load, and the merge is unchanged.
    force_recompute(&root);
    let resumed = Orchestrator::resume(&root).unwrap();
    assert_eq!(resumed.stats.shards_reused, 3, "the intact shard files are reused");
    assert_eq!(resumed.stats.shards_computed, 1, "only the torn shard recomputes");
    assert_results_identical(&resumed.result, &reference.result, "resume after a torn shard");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn aborted_run_dirs_resume_bit_identically_once_faults_clear() {
    // A failure redispatch cannot heal meets crash-safe persistence: a
    // shard poisoned by the fault plan exhausts its dispatch budget, the
    // run fails with the typed executor error and publishes no result,
    // and — once the faults clear — resuming the same dir in process
    // merges to the bit-identical never-faulted result. An aborted run
    // is a checkpoint, not a dead end.
    let config = config(ApproachKind::Llm4Fp, 24, 59);
    let reference = Orchestrator::new(config.clone()).shards(3).epochs(2).workers(2).run().unwrap();

    let root = temp_dir("abort-resume");
    let poisoned = WorkerExecutor::new(SupervisionConfig {
        worker_procs: 2,
        worker_bin: Some(PathBuf::from(env!("CARGO_BIN_EXE_llm4fp-worker"))),
        respawn_backoff: Duration::from_millis(1),
        faults: FaultPlan {
            every_worker: vec![WorkerFault::CrashOnShard(1)],
            ..FaultPlan::default()
        },
        ..SupervisionConfig::default()
    });
    let err = Orchestrator::new(config.clone())
        .shards(3)
        .epochs(2)
        .run_dir(root.clone())
        .executor(Arc::new(poisoned))
        .run()
        .expect_err("a shard that can never complete aborts the run");
    assert!(matches!(err, OrchestratorError::Executor(_)), "got {err}");
    assert!(err.to_string().contains("failed 3 time(s)"), "{err}");
    assert!(!root.join("result.json").exists(), "an aborted run publishes no result");
    assert!(!root.join("metrics.json").exists(), "nor a flight recorder");

    // The faults clear (a resume runs in process, with no plan armed).
    let resumed = Orchestrator::resume(&root).unwrap();
    assert_eq!(resumed.stats.shards_computed + resumed.stats.shards_reused, 3);
    assert_results_identical(&resumed.result, &reference.result, "post-abort resume");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn stale_tmp_stragglers_never_block_or_pollute_a_resume() {
    let config = config(ApproachKind::Varity, 12, 53);
    let root = temp_dir("tmp-stragglers");
    let full = persisted_run(&config, &root, 2);
    force_recompute(&root);

    // Simulate a crash mid-atomic-write in every artifact directory.
    for (dir, name) in [
        ("", ".result.json.999-0.tmp"),
        ("shards", ".shard-0000.jsonl.999-1.tmp"),
        ("checkpoints", ".shard-0000-epoch-0000.json.999-3.tmp"),
    ] {
        let at = if dir.is_empty() { root.clone() } else { root.join(dir) };
        std::fs::write(at.join(name), "{\"half\":").unwrap();
    }

    let resumed = Orchestrator::resume(&root).unwrap();
    assert_results_identical(&resumed.result, &full.result, "resume with tmp stragglers");
    for dir in ["", "shards", "checkpoints"] {
        let at = if dir.is_empty() { root.clone() } else { root.join(dir) };
        let stragglers: Vec<_> = std::fs::read_dir(&at)
            .unwrap()
            .flatten()
            .filter(|e| e.path().extension().is_some_and(|ext| ext == "tmp"))
            .collect();
        assert!(stragglers.is_empty(), "{dir:?} still holds tmp stragglers");
    }
    let _ = std::fs::remove_dir_all(&root);
}
