//! The out-of-process executor's load-bearing guarantee, exercised
//! against real `llm4fp-worker --connect` daemons dialing a loopback
//! coordinator: a [`WorkerExecutor`] run is bit-identical to the
//! in-process run for any `(K, E, worker_procs)` — under an injected
//! worker crash (the job redispatches and the worker is respawned), a
//! stalled worker (its lease expires, it is killed and respawned),
//! sabotaged answer frames, failed respawns, every connection-level
//! [`WorkerFault`] (a fault may cost time, never bits), a
//! mid-epoch disconnect-reconnect-resume, expired leases (the silent
//! worker is killed, so its answer can never merge) and retransmitted
//! answers (discarded by lease generation, never merged).
//! The merged `metrics.json` flight recorder is byte-identical across
//! executors, which is what the CI smoke campaigns assert end to end, and
//! so is every barrier's persisted state (checkpoints up to their wall
//! clock, pool artifacts byte for byte).
//! The handshake half pins the version contract: a skewed `Hello` is
//! refused in words — a typed [`WireRequest::Refuse`] — never undefined
//! framing. A worker driven by hand refuses a job whose checkpoint lost
//! an RNG word, ending the connection instead of resuming to other bits.

use std::io;
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llm4fp::{ApproachKind, CampaignConfig, CampaignResult, RunnerCheckpoint};
use llm4fp_orchestrator::wire::{read_frame, write_frame, ShardJob, WireReply, WireRequest};
use llm4fp_orchestrator::{
    plan_shards, FaultPlan, Hello, OrchestratedResult, Orchestrator, OrchestratorError,
    OrchestratorOptions, Scheduler, ShardExecutor, ShardRunner, SupervisionConfig, WorkerExecutor,
    WorkerFault, PROTOCOL_VERSION,
};
use llm4fp_telemetry::TelemetrySpec;

/// Cargo builds the worker daemon alongside the test binary and hands us
/// its path; pinning it skips the sibling-binary search.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_llm4fp-worker"))
}

/// `worker_procs` self-spawned loopback workers, everything else default.
fn workers(worker_procs: usize) -> SupervisionConfig {
    SupervisionConfig {
        worker_procs,
        worker_bin: Some(worker_bin()),
        ..SupervisionConfig::default()
    }
}

/// No self-spawned workers: the session serves whoever dials in.
fn external_only() -> SupervisionConfig {
    SupervisionConfig { worker_procs: 0, ..SupervisionConfig::default() }
}

fn config(approach: ApproachKind, budget: usize, seed: u64) -> CampaignConfig {
    CampaignConfig::new(approach).with_budget(budget).with_seed(seed).with_threads(1)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("remote-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn in_process(config: &CampaignConfig, shards: usize, epochs: usize) -> OrchestratedResult {
    Orchestrator::new(config.clone()).shards(shards).epochs(epochs).run().unwrap()
}

fn run(
    config: &CampaignConfig,
    shards: usize,
    epochs: usize,
    supervision: SupervisionConfig,
) -> Result<OrchestratedResult, OrchestratorError> {
    Orchestrator::new(config.clone())
        .shards(shards)
        .epochs(epochs)
        .executor(Arc::new(WorkerExecutor::new(supervision)))
        .run()
}

fn on_workers(
    config: &CampaignConfig,
    shards: usize,
    epochs: usize,
    supervision: SupervisionConfig,
) -> OrchestratedResult {
    run(config, shards, epochs, supervision).unwrap()
}

/// Transport equivalence compares everything deterministic. (`RunStats`
/// wall-clock fields and `peak_regs` are runtime artifacts, not part of
/// the contract.)
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
fn remote_loopback_matches_in_process_bit_for_bit() {
    let config = config(ApproachKind::Llm4Fp, 24, 7);
    for epochs in [1usize, 3] {
        let reference = in_process(&config, 4, epochs);
        for worker_procs in [1usize, 2, 4] {
            let remoted = on_workers(&config, 4, epochs, workers(worker_procs));
            assert_results_identical(
                &remoted.result,
                &reference.result,
                &format!("E={epochs} procs={worker_procs}"),
            );
            assert_eq!(remoted.stats.shards, reference.stats.shards);
            assert_eq!(remoted.stats.epochs, epochs);
            assert!(remoted.stats.failures.is_empty());
        }
    }
}

#[test]
fn remote_k1_matches_the_sequential_campaign() {
    let config = config(ApproachKind::Varity, 12, 19);
    let sequential = llm4fp::Campaign::new(config.clone()).run();
    let remoted = on_workers(&config, 1, 1, workers(2));
    assert_results_identical(&remoted.result, &sequential, "workers K=1");
}

#[test]
fn metrics_json_is_byte_identical_on_the_remote_transport() {
    // The deterministic flight recorder must not betray the transport:
    // telemetry counters shipped home over TCP merge into the exact
    // bytes the in-process run writes — the witness the CI smoke jobs
    // pin with cmp across executors.
    let config = config(ApproachKind::Llm4Fp, 18, 9);
    let mut reference: Option<String> = None;
    for (tag, supervision) in [("in-process", None), ("workers", Some(workers(3)))] {
        let root = temp_dir(&format!("metrics-{tag}"));
        let mut builder = Orchestrator::new(config.clone())
            .shards(3)
            .epochs(2)
            .run_dir(root.clone())
            .telemetry(TelemetrySpec::METRICS);
        if let Some(supervision) = supervision {
            builder = builder.executor(Arc::new(WorkerExecutor::new(supervision)));
        }
        let orchestrated = builder.run().unwrap();
        assert_eq!(orchestrated.stats.shards_computed, 3, "{tag}");
        let bytes = std::fs::read_to_string(root.join("metrics.json"))
            .expect("metrics.json written for a fully computed run");
        match &reference {
            None => reference = Some(bytes),
            Some(expected) => {
                assert_eq!(&bytes, expected, "metrics.json must not depend on the transport")
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn barrier_artifacts_are_identical_in_process_and_on_the_process_pool() {
    // Every executor runs the same session, so every barrier persists the
    // same state: each checkpoint decodes equal once its wall clock is
    // zeroed, and each pool artifact is the same bytes.
    let config = config(ApproachKind::Llm4Fp, 48, 11);
    let (shards, epochs) = (4usize, 4usize);
    let dirs: Vec<PathBuf> = [("in-process", None), ("process-pool", Some(workers(2)))]
        .into_iter()
        .map(|(tag, supervision)| {
            let root = temp_dir(&format!("barriers-{tag}"));
            let mut builder = Orchestrator::new(config.clone())
                .shards(shards)
                .epochs(epochs)
                .run_dir(root.clone());
            if let Some(supervision) = supervision {
                builder = builder.executor(Arc::new(WorkerExecutor::new(supervision)));
            }
            builder.run().unwrap();
            root
        })
        .collect();
    let names = |root: &PathBuf, artifacts: &str| {
        let mut names: Vec<String> = std::fs::read_dir(root.join(artifacts))
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    };
    let read = |artifacts: &str, name: &str| -> Vec<String> {
        dirs.iter()
            .map(|root| std::fs::read_to_string(root.join(artifacts).join(name)).unwrap())
            .collect()
    };
    let checkpoints = names(&dirs[0], "checkpoints");
    assert_eq!(checkpoints.len(), shards * (epochs - 1));
    assert_eq!(names(&dirs[1], "checkpoints"), checkpoints);
    for name in &checkpoints {
        let decoded: Vec<RunnerCheckpoint> = read("checkpoints", name)
            .iter()
            .map(|text| RunnerCheckpoint {
                pipeline_time: Duration::ZERO,
                ..serde_json::from_str(text).unwrap()
            })
            .collect();
        assert_eq!(decoded[0], decoded[1], "{name}");
    }
    let pools = names(&dirs[0], "pool");
    assert_eq!(pools.len(), epochs - 1);
    assert_eq!(names(&dirs[1], "pool"), pools);
    for name in &pools {
        let bytes = read("pool", name);
        assert_eq!(bytes[0], bytes[1], "{name}");
    }
    for root in &dirs {
        let _ = std::fs::remove_dir_all(root);
    }
}

#[test]
fn process_pool_matches_in_process_bit_for_bit() {
    // An executor is an `Arc` a caller may hand to run after run. Each
    // run is its own session — it rebinds, raises fresh workers and tears
    // them down — so one executor serving back-to-back campaigns of
    // different epoch counts stays bit-identical to the in-process runs.
    let config = config(ApproachKind::Llm4Fp, 24, 7);
    let references: Vec<_> =
        [1usize, 3].map(|epochs| (epochs, in_process(&config, 4, epochs))).into();
    for worker_procs in [1usize, 2, 4] {
        let executor: Arc<dyn ShardExecutor> = Arc::new(WorkerExecutor::new(workers(worker_procs)));
        for (epochs, reference) in &references {
            let pooled = Orchestrator::new(config.clone())
                .shards(4)
                .epochs(*epochs)
                .executor(Arc::clone(&executor))
                .run()
                .unwrap();
            assert_results_identical(
                &pooled.result,
                &reference.result,
                &format!("reused executor E={epochs} procs={worker_procs}"),
            );
            assert_eq!(pooled.stats.shards, reference.stats.shards);
            assert_eq!(pooled.stats.epochs, *epochs);
        }
    }
}

#[test]
fn process_pool_k1_matches_the_sequential_campaign() {
    // One shard on one worker across three epochs: the shard's runner
    // checkpoint crosses the wire at every barrier and resumes on the
    // same daemon, and the stitched result is the sequential campaign.
    let config = config(ApproachKind::Varity, 12, 19);
    let sequential = llm4fp::Campaign::new(config.clone()).run();
    let pooled = on_workers(&config, 1, 3, workers(1));
    assert_results_identical(&pooled.result, &sequential, "one worker K=1 E=3");
    assert_eq!(pooled.stats.epochs, 3);
}

#[test]
fn metrics_json_is_byte_identical_across_transports() {
    // A worker that crashes mid-epoch never ships the counters of the job
    // it died on; the replayed job ships them once. So the flight recorder
    // of a run healed by redispatch and respawn is byte-identical to the
    // in-process one.
    let config = config(ApproachKind::Llm4Fp, 18, 9);
    let crashing =
        SupervisionConfig { faults: first_worker_plan(WorkerFault::CrashAtJob(1)), ..workers(2) };
    let mut reference: Option<String> = None;
    for (tag, supervision) in [("in-process", None), ("healed-workers", Some(crashing))] {
        // Apart from the other metrics test's dirs: tests run in parallel.
        let root = temp_dir(&format!("healed-metrics-{tag}"));
        let mut builder = Orchestrator::new(config.clone())
            .shards(3)
            .epochs(2)
            .run_dir(root.clone())
            .telemetry(TelemetrySpec::METRICS);
        if let Some(supervision) = supervision {
            builder = builder.executor(Arc::new(WorkerExecutor::new(supervision)));
        }
        let orchestrated = builder.run().unwrap();
        assert_eq!(orchestrated.stats.shards_computed, 3, "{tag}");
        if reference.is_some() {
            let supervision = orchestrated.stats.supervision;
            assert!(supervision.redispatches >= 1, "{tag}: the crash happened: {supervision:?}");
        }
        let bytes = std::fs::read_to_string(root.join("metrics.json"))
            .expect("metrics.json written for a fully computed run");
        match &reference {
            None => reference = Some(bytes),
            Some(expected) => {
                assert_eq!(&bytes, expected, "metrics.json must not record the recovery")
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn missing_worker_binary_is_a_typed_worker_unavailable_error() {
    // A worker path that exists but cannot be executed — a plain file
    // without the exec bit, or a directory — is as missing as an absent
    // one: `begin` surfaces the typed `WorkerUnavailable`, not an I/O
    // error and not a wait for workers that will never dial in.
    let config = config(ApproachKind::Varity, 4, 1);
    let dir = temp_dir("unexecutable-worker");
    std::fs::create_dir_all(&dir).unwrap();
    let plain_file = dir.join("llm4fp-worker");
    std::fs::write(&plain_file, b"not a program").unwrap();
    for bin in [plain_file, dir.clone()] {
        let doomed = SupervisionConfig { worker_bin: Some(bin.clone()), ..workers(2) };
        let err = run(&config, 2, 1, doomed).unwrap_err();
        assert!(
            matches!(err, OrchestratorError::WorkerUnavailable(_)),
            "{}: got {err}",
            bin.display()
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A plan faulting only worker slot 0's first spawn — the redispatch-
/// equivalence shape: the fault fires once and recovery heals it.
fn first_worker_plan(fault: WorkerFault) -> FaultPlan {
    FaultPlan { first_worker: vec![fault], ..FaultPlan::default() }
}

#[test]
fn worker_crash_redispatches_and_stays_bit_identical() {
    // Worker slot 0's first daemon dies with exit(101) upon receiving
    // its first job, before answering. The coordinator must see the
    // connection die, requeue the job, respawn a clean daemon, and
    // replay the job — with no trace in the results. With one worker
    // the run can only finish through the respawn.
    let config = config(ApproachKind::Llm4Fp, 20, 5);
    for epochs in [1usize, 2] {
        let reference = in_process(&config, 4, epochs);
        for worker_procs in [1usize, 2] {
            let what = format!("crash redispatch E={epochs} procs={worker_procs}");
            let crashing = SupervisionConfig {
                faults: first_worker_plan(WorkerFault::CrashAtJob(1)),
                ..workers(worker_procs)
            };
            let survived = on_workers(&config, 4, epochs, crashing);
            assert_results_identical(&survived.result, &reference.result, &what);
            assert!(survived.stats.failures.is_empty(), "{what}: healed, not a shard failure");
            let supervision = survived.stats.supervision;
            assert!(supervision.redispatches >= 1, "{what}: the crash is counted: {supervision:?}");
            if worker_procs == 1 {
                assert!(supervision.respawns >= 1, "{what}: the worker came back: {supervision:?}");
            }
        }
    }
}

#[test]
fn stalled_worker_is_killed_and_its_job_redispatched() {
    // Worker slot 0's first daemon stalls far past the lease on every job
    // it receives. Its lease expires, and the coordinator abandons the
    // lease, closes the connection, kills the worker's process group and
    // respawns a clean worker — again with bit-identical results. With
    // one worker, nothing but the kill and the respawn can finish the
    // run.
    let config = config(ApproachKind::Varity, 12, 3);
    let reference = in_process(&config, 3, 1);
    for worker_procs in [1usize, 2] {
        let stalling = SupervisionConfig {
            faults: first_worker_plan(WorkerFault::StallMs(60_000)),
            lease_timeout: Duration::from_millis(500),
            ..workers(worker_procs)
        };
        let what = format!("stall kill and redispatch, procs={worker_procs}");
        let survived = on_workers(&config, 3, 1, stalling);
        assert_results_identical(&survived.result, &reference.result, &what);
        let supervision = survived.stats.supervision;
        if worker_procs == 1 {
            assert!(supervision.respawns >= 1, "{what}: the worker was killed: {supervision:?}");
        }
    }
}

#[test]
fn sabotaged_answer_frames_redispatch_and_stay_bit_identical() {
    // A worker that answers with garbage ends its connection, and so
    // does one that drops it instead of answering (the coordinator reads
    // an answer truncated mid-frame the same way): the coordinator must
    // treat either as a dispatch failure and replay the job. With one
    // worker the replay runs on the worker's redialed connection.
    let config = config(ApproachKind::Llm4Fp, 16, 21);
    let reference = in_process(&config, 3, 1);
    for fault in [WorkerFault::CorruptFrameAtJob(1), WorkerFault::DropConnAtJob(1)] {
        for worker_procs in [1usize, 2] {
            let what = format!("{fault:?} procs={worker_procs}");
            let sabotaged = SupervisionConfig {
                faults: first_worker_plan(fault.clone()),
                ..workers(worker_procs)
            };
            let survived = on_workers(&config, 3, 1, sabotaged);
            assert_results_identical(&survived.result, &reference.result, &what);
            assert!(survived.stats.failures.is_empty(), "{what}: healed, not a shard failure");
            let supervision = survived.stats.supervision;
            assert_eq!(supervision.redispatches, 1, "{what}: {supervision:?}");
        }
    }
}

#[test]
fn injected_respawn_failures_retry_and_recover() {
    // Chaos shape: slot 0's first daemon crashes AND the coordinator's
    // first respawn attempt is itself made to fail (as if fork/exec
    // died). The slot waits out the fixed retry delay and the next
    // respawn succeeds — results stay bit-identical, and with a single
    // worker the run can only finish through that second attempt.
    let config = config(ApproachKind::Varity, 12, 17);
    let reference = in_process(&config, 3, 1);
    let flaky = SupervisionConfig {
        faults: FaultPlan {
            first_worker: vec![WorkerFault::CrashAtJob(1)],
            respawn_failures: 1,
            ..FaultPlan::default()
        },
        ..workers(1)
    };
    let survived = on_workers(&config, 3, 1, flaky);
    assert_results_identical(&survived.result, &reference.result, "respawn failure recovery");
    assert_eq!(survived.stats.supervision.respawns, 1, "one successful respawn");
}

/// Shard 1 crashes every worker that touches it, and respawns inherit
/// the poison.
fn poisoned() -> SupervisionConfig {
    SupervisionConfig {
        faults: FaultPlan {
            every_worker: vec![WorkerFault::CrashOnShard(1)],
            ..FaultPlan::default()
        },
        ..workers(2)
    }
}

#[test]
fn poisonous_shard_aborts_the_run_under_the_default_policy() {
    // `every_worker` poison survives respawns: shard 1's job crashes
    // every daemon that touches it, exhausting the dispatch budget. That
    // must fail the whole run with a typed error naming the job, the
    // spent budget and the worker's death (not the I/O call that saw it).
    let config = config(ApproachKind::Varity, 12, 23);
    let err = run(&config, 3, 1, poisoned())
        .expect_err("a shard that can never complete must abort the run");
    assert!(matches!(err, OrchestratorError::Executor(_)), "got {err}");
    let message = err.to_string();
    assert!(message.contains("failed 3 time(s)"), "{message}");
    assert!(message.contains("worker stream closed"), "{message}");
    assert!(!message.contains("fill whole buffer"), "{message}");
}

#[test]
fn scheduler_suites_run_on_the_process_pool() {
    // The suite scheduler is transport-agnostic through the same seam:
    // a multi-campaign suite farmed to worker daemons must match the
    // in-process suite campaign for campaign.
    let configs: Vec<CampaignConfig> =
        [ApproachKind::Varity, ApproachKind::Llm4Fp].iter().map(|&a| config(a, 12, 8)).collect();
    let options = OrchestratorOptions { workers: 2, epochs: 2, ..Default::default() };
    let reference = Scheduler::new(options.clone()).shards(2).run(&configs).unwrap();
    let remoted = Scheduler::new(options)
        .shards(2)
        .executor(Arc::new(WorkerExecutor::new(workers(3))))
        .run(&configs)
        .unwrap();
    assert_eq!(remoted.len(), reference.len());
    for (p, r) in remoted.iter().zip(&reference) {
        assert_results_identical(&p.result, &r.result, "suite on worker daemons");
        // Workers cannot share an in-memory cache across processes, so
        // the scheduler must not report (or rely on) cache stats.
        assert!(p.stats.cache.is_none(), "no shared-cache stats out of process");
    }
}

#[test]
fn every_network_fault_heals_bit_identically_in_abort_mode() {
    // The connection-level faults, one at a time: a dropped connection
    // redials and resumes, a duplicated result is discarded as stale by
    // lease generation, a slow answer just arrives later, and a refused
    // handshake heals on the worker's next dial. None of it may cost a
    // bit.
    let config = config(ApproachKind::Llm4Fp, 20, 5);
    let reference = in_process(&config, 4, 1);
    for fault in [
        WorkerFault::DropConnAtJob(1),
        WorkerFault::DuplicateResultAtJob(1),
        WorkerFault::StallMs(50),
        WorkerFault::RefuseHandshake,
    ] {
        let what = format!("{fault:?}");
        let chaotic = SupervisionConfig { faults: first_worker_plan(fault), ..workers(2) };
        let survived = on_workers(&config, 4, 1, chaotic);
        assert_results_identical(&survived.result, &reference.result, &what);
        assert!(survived.stats.failures.is_empty(), "{what}: healed, not a shard failure");
    }
}

#[test]
fn a_worker_that_cannot_fill_a_pool_text_drops_and_the_job_redispatches_bit_identically() {
    // With K = 2 on one worker, the third job (shard 0, epoch 1) leaves
    // out every pool text: the connection already carried both shards'
    // epoch-0 finds. The worker forgets them just before, so it cannot
    // fill the job. It drops the connection, and the job redispatches on
    // the worker's next connection, which resends every text.
    let config = config(ApproachKind::Llm4Fp, 24, 5);
    let reference = in_process(&config, 2, 3);
    let forgetful = SupervisionConfig {
        faults: first_worker_plan(WorkerFault::ForgetPoolAtJob(3)),
        ..workers(1)
    };
    let survived = on_workers(&config, 2, 3, forgetful);
    assert_results_identical(&survived.result, &reference.result, "unfillable pool text");
    assert_eq!(survived.stats.supervision.redispatches, 1, "the unfillable job redispatched");
    assert!(survived.stats.frame_bytes > 0, "frame bytes are counted");
}

#[test]
fn retransmitted_answers_count_as_stale_across_barriers() {
    // The only worker sends its n-th answer twice. The copy reaches the
    // coordinator while it awaits another lease: the next job of the
    // same epoch (n = 1), or the first job after the barrier (n = 2,
    // the epoch's last answer). Either way it is discarded and counted
    // once. With K = 1 the copy is a leftover of a folded epoch, and
    // lease generations that restarted per epoch would mistake it for
    // the next epoch's answer.
    let config = config(ApproachKind::Llm4Fp, 20, 5);
    for (shards, n) in [(2usize, 1u64), (2, 2), (1, 1)] {
        let what = format!("K={shards} DuplicateResultAtJob({n})");
        let reference = in_process(&config, shards, 2);
        let retransmitting = SupervisionConfig {
            faults: first_worker_plan(WorkerFault::DuplicateResultAtJob(n)),
            ..workers(1)
        };
        let survived = on_workers(&config, shards, 2, retransmitting);
        assert_results_identical(&survived.result, &reference.result, &what);
        assert_eq!(survived.stats.supervision.stale_results, 1, "{what}");
    }
}

#[test]
fn fault_free_pools_dispatch_each_segment_once() {
    // No fault, no expired lease: every shard-epoch segment is sent to
    // exactly one worker, so the trace holds one dispatch span per
    // segment and nothing is discarded. An idle worker at an epoch's
    // tail waits rather than recomputing a running job.
    let (shards, epochs) = (8usize, 4usize);
    let config = config(ApproachKind::Llm4Fp, 64, 13);
    let reference = in_process(&config, shards, epochs);
    let root = temp_dir("dispatch-once");
    let pooled = Orchestrator::new(config.clone())
        .shards(shards)
        .epochs(epochs)
        .run_dir(root.clone())
        .telemetry(TelemetrySpec::TRACE)
        .executor(Arc::new(WorkerExecutor::new(workers(2))))
        .run()
        .unwrap();
    assert_results_identical(&pooled.result, &reference.result, "dispatch once");
    assert_eq!(pooled.stats.supervision.stale_results, 0);
    let trace = std::fs::read_to_string(root.join("trace.jsonl")).expect("trace.jsonl written");
    let dispatches = trace.lines().filter(|line| line.contains("\"shard.run\"")).count();
    assert_eq!(dispatches, shards * epochs, "one shard.run span per segment");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn mid_epoch_disconnect_reconnects_and_resumes_bit_identically() {
    // The single worker drops its connection upon receiving its second
    // job, mid-epoch. Being the only worker, the run can finish *only*
    // if reconnect-and-resume works: the worker redials, passes the
    // handshake again, and the abandoned job is re-dispatched to the
    // fresh connection — across epoch barriers too.
    let config = config(ApproachKind::Llm4Fp, 18, 11);
    for epochs in [1usize, 2] {
        let reference = in_process(&config, 3, epochs);
        let partitioned = SupervisionConfig {
            faults: first_worker_plan(WorkerFault::DropConnAtJob(2)),
            ..workers(1)
        };
        let survived = on_workers(&config, 3, epochs, partitioned);
        assert_results_identical(
            &survived.result,
            &reference.result,
            &format!("disconnect-reconnect-resume E={epochs}"),
        );
        assert!(survived.stats.failures.is_empty(), "a healed partition is not a shard failure");
    }
}

#[test]
fn expired_leases_redispatch_and_late_answers_never_merge() {
    // Worker process 0 stalls every answer past the lease deadline, so
    // its dispatch expires and re-queues, and the coordinator kills it;
    // its respawn carries no fault, so the default dispatch budget
    // suffices. Process 0's late answer can never land: its lease is
    // dead and its connection closed. If a single stale result were
    // merged, the bit-identity assertion would catch the duplicate
    // delta.
    let config = config(ApproachKind::Varity, 12, 3);
    let reference = in_process(&config, 3, 1);
    let laggy = SupervisionConfig {
        lease_timeout: Duration::from_millis(300),
        faults: first_worker_plan(WorkerFault::StallMs(450)),
        ..workers(2)
    };
    let survived = on_workers(&config, 3, 1, laggy);
    assert_results_identical(&survived.result, &reference.result, "lease expiry + stale discard");
    assert!(survived.stats.failures.is_empty());
}

#[test]
fn external_workers_dial_a_worker_less_coordinator() {
    // `worker_procs = 0`: the coordinator spawns nothing and serves
    // whatever dials `bound_addr()` — here a worker we launch by hand,
    // the shape remote machines use. The executor clone shares the
    // bound-address cell, so a sidecar thread can watch it resolve.
    let config = config(ApproachKind::Varity, 8, 13);
    let reference = in_process(&config, 2, 1);
    let executor = WorkerExecutor::new(external_only());
    let probe = executor.clone();
    let spawner = std::thread::spawn(move || {
        let addr = loop {
            if let Some(addr) = probe.bound_addr() {
                break addr;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        Command::new(worker_bin())
            .arg("--connect")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("external worker spawns")
    });
    let remoted = Orchestrator::new(config)
        .shards(2)
        .executor(Arc::new(executor))
        .run()
        .expect("external workers complete the run");
    assert_results_identical(&remoted.result, &reference.result, "external worker dial-in");
    // The coordinator's shutdown frame sends the external worker home
    // (exit 0); reap it with a bounded wait so a regression hangs the
    // assertion, not the test harness.
    let mut child = spawner.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on external worker") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    match status {
        Some(status) => assert!(status.success(), "worker exits cleanly on Shutdown: {status}"),
        None => {
            let _ = child.kill();
            panic!("external worker never received the shutdown frame");
        }
    }
}

#[test]
fn version_skewed_handshake_is_refused_in_words() {
    // A connection presenting the wrong protocol version gets a typed
    // WireRequest::Refuse naming the skew — never undefined framing, and
    // never a job. A well-versioned handshake on the same live session
    // is answered with the coordinator's Hello.
    let executor = WorkerExecutor::new(external_only());
    let session = executor.begin(Vec::new()).expect("session binds");
    let addr = executor.bound_addr().expect("bound address recorded");

    let mut skewed = TcpStream::connect(addr).expect("dial coordinator");
    let bad_hello = Hello { protocol: PROTOCOL_VERSION + 1, ..Hello::current() };
    write_frame(&mut skewed, &WireReply::Hello(bad_hello)).expect("send skewed hello");
    match read_frame::<WireRequest, _>(&mut skewed).expect("a refusal frame, not a hangup") {
        WireRequest::Refuse(why) => {
            assert!(why.contains("version mismatch"), "refusal names the skew: {why}");
            assert!(why.contains("protocol"), "refusal names the layer: {why}");
        }
        other => panic!("expected Refuse, got {other:?}"),
    }

    let mut good = TcpStream::connect(addr).expect("dial coordinator again");
    write_frame(&mut good, &WireReply::Hello(Hello::current())).expect("send current hello");
    match read_frame::<WireRequest, _>(&mut good).expect("an acceptance frame") {
        WireRequest::Hello(hello) => assert!(hello.check().is_ok()),
        other => panic!("expected the coordinator's Hello, got {other:?}"),
    }
    drop(session);
}

#[test]
fn workers_refuse_checkpoints_with_a_damaged_rng_state() {
    // Driven by hand over loopback, a worker answers a job whose
    // checkpoint is whole, and hangs up on the same job once one word of
    // an RNG state is gone — the way it hangs up on a pool text it cannot
    // fill — instead of padding the state and resuming to other bits.
    let config = config(ApproachKind::Llm4Fp, 8, 3);
    let spec = plan_shards(&config, 1)[0];
    let mut runner = ShardRunner::new(&config, spec, None);
    runner.run_segment(2, |_| {});
    let whole = runner.checkpoint();
    let mut damaged = whole.clone();
    damaged.llm_rng.pop();
    let job = |checkpoint| {
        WireRequest::Job(Box::new(ShardJob {
            config: config.clone(),
            spec,
            segment: 2,
            finish: false,
            checkpoint: Some(checkpoint),
            process_slots: 1,
            telemetry: false,
            lease: 1,
        }))
    };

    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().unwrap().to_string();
    let mut worker = Command::new(worker_bin())
        .args(["--connect", &addr, "--reconnect", "0"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("worker spawns");
    let (mut stream, _) = listener.accept().expect("the worker dials in");
    stream.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    assert!(matches!(read_frame::<WireReply, _>(&mut stream), Ok(WireReply::Hello(_))));
    write_frame(&mut stream, &WireRequest::Hello(Hello::current())).unwrap();
    write_frame(&mut stream, &job(whole)).unwrap();
    assert!(matches!(read_frame::<WireReply, _>(&mut stream), Ok(WireReply::Result(_))));
    write_frame(&mut stream, &job(damaged)).unwrap();
    let hangup = read_frame::<WireReply, _>(&mut stream).expect_err("the worker hangs up");
    assert_eq!(hangup.kind(), io::ErrorKind::UnexpectedEof, "{hangup}");
    // With no redials left, the dropped stream ends the worker.
    assert_eq!(worker.wait().expect("reap the worker").code(), Some(1));
}

#[test]
fn worker_without_connect_exits_2_with_usage() {
    // The daemon has one serve mode: dialing a coordinator. Started
    // without `--connect` it refuses in words and exits 2 instead of
    // waiting for frames that will never come.
    let out = Command::new(worker_bin())
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run the worker binary");
    assert_eq!(out.status.code(), Some(2), "a usage error, not a crash or a hang");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--connect is required") && stderr.contains("usage: llm4fp-worker"),
        "stderr names the missing flag and the usage: {stderr}"
    );
    // The frame cap is a fixed constant: the retired flag is refused
    // before any dial.
    let out = Command::new(worker_bin())
        .args(["--connect", "127.0.0.1:1", "--max-frame-len", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .output()
        .expect("run the worker binary");
    assert_eq!(out.status.code(), Some(2), "a usage error, not a crash or a dial");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("unknown argument"), "stderr names the retired flag: {stderr}");
}

#[test]
fn worker_starvation_is_a_typed_worker_unavailable_error() {
    // No worker ever dials in: the epoch's starvation deadline trips and
    // surfaces as WorkerUnavailable.
    let config = config(ApproachKind::Varity, 4, 1);
    let starved = SupervisionConfig { worker_wait: Duration::from_millis(200), ..external_only() };
    let err = run(&config, 2, 1, starved).unwrap_err();
    assert!(matches!(err, OrchestratorError::WorkerUnavailable(_)), "got {err}");
}

#[test]
fn unspawnable_loopback_workers_are_worker_unavailable() {
    // Self-spawned mode with a dead binary path: the executor cannot
    // raise its own workers, which is the typed WorkerUnavailable class
    // any caller-side retry logic keys on — and the session must tear
    // the listener down on the way out.
    let config = config(ApproachKind::Varity, 4, 1);
    let doomed = |worker_procs| SupervisionConfig {
        worker_bin: Some("/nonexistent/llm4fp-worker".into()),
        ..workers(worker_procs)
    };
    for worker_procs in [1usize, 2] {
        let err = run(&config, 2, 1, doomed(worker_procs)).unwrap_err();
        assert!(matches!(err, OrchestratorError::WorkerUnavailable(_)), "got {err}");
    }
    // A suite on the same executor fails the same typed way.
    let configs: Vec<CampaignConfig> = [ApproachKind::Varity, ApproachKind::Llm4Fp]
        .iter()
        .map(|&a| crate::config(a, 12, 8))
        .collect();
    let options = OrchestratorOptions { workers: 2, epochs: 2, ..Default::default() };
    let err = Scheduler::new(options)
        .shards(2)
        .executor(Arc::new(WorkerExecutor::new(doomed(2))))
        .run(&configs)
        .expect_err("a suite without workers fails");
    assert!(matches!(err, OrchestratorError::WorkerUnavailable(_)), "got {err}");
}
