//! The transport-agnostic shard execution layer.
//!
//! [`ShardExecutor`] is the seam between the orchestrator's *planning*
//! (shard decomposition, epoch barriers, delta merging, persistence) and
//! the *mechanics* of running shard segments somewhere. The coordinator
//! talks to every transport through the same session protocol:
//!
//! ```text
//!   campaign driver                   ShardExecutor::begin(tasks, sink)
//!   (Orchestrator | Scheduler)                      |
//!            |                                      |
//!            |            Box<dyn ShardSession>     |
//!            +------------------+-------------------+
//!                               |
//!            per epoch:  run_epoch(segments, last) -> hashed deltas
//!            at barrier: inject(merged hashed deltas), checkpoints()
//!            at the end: finish() -> Vec<ShardOutput>
//! ```
//!
//! Everything a transport needs to run one shard is a serializable
//! [`ShardTask`]; everything it produces is the serializable
//! [`crate::ShardOutput`] — the same contract the JSONL run directory
//! already persists, promoted to a wire contract. Two implementations
//! share all merge/barrier logic in the coordinator:
//!
//! * [`InProcessExecutor`] — shard runners on a worker-thread pool inside
//!   this process (the classic engine, bit-identical to the pre-executor
//!   code path);
//! * [`crate::WorkerExecutor`] — `llm4fp-worker` daemon processes dialing
//!   a TCP coordinator (`llm4fp-worker --connect`) and fed
//!   length-prefixed JSON jobs (see [`crate::wire`]), supervised by
//!   leases, heartbeats, reconnect-and-resume, respawn and
//!   crash-and-redispatch (see [`crate::remote`]).
//!
//! Determinism is preserved across transports because a shard segment is
//! a pure function of `(config, spec, checkpoint, segment length)`:
//! whichever process computes it — and however many times a crash makes
//! it recompute — the bytes that reach the barrier are identical.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use llm4fp::{CampaignConfig, RunnerCheckpoint, SuccessfulSet};
use llm4fp_difftest::ResultCache;
use llm4fp_telemetry::{keys, Telemetry};

use crate::persist::PersistError;
use crate::pool::run_indexed;
use crate::shard::{ShardOutput, ShardRunner, ShardSpec};
use crate::supervisor::SupervisionCounts;

/// Errors from orchestrated execution.
#[derive(Debug)]
pub enum OrchestratorError {
    /// `workers == 0` was requested. Worker counts are validated at the
    /// API boundary instead of being silently clamped.
    InvalidWorkers,
    /// `max_dispatch_attempts == 0` was requested — a budget of zero
    /// would fail every job before its first dispatch. Validated at the
    /// API boundary like [`InvalidWorkers`](Self::InvalidWorkers).
    InvalidDispatchAttempts,
    /// The persistence layer failed (run-dir I/O, manifest mismatch,
    /// corrupt files).
    Persist(PersistError),
    /// The transport has no workers: the binary is missing, a spawn
    /// failed, the coordinator cannot bind, or no worker connected within
    /// the worker wait. Like [`Executor`](Self::Executor), it leaves a run
    /// directory resumable from its latest complete barrier under any
    /// executor, with bit-identical results.
    WorkerUnavailable(String),
    /// A shard executor failed in a way that redispatch cannot heal: a
    /// job exhausted its dispatch budget ("failed 3 time(s)"), or a
    /// protocol violation on the wire.
    Executor(String),
}

impl fmt::Display for OrchestratorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OrchestratorError::InvalidWorkers => {
                write!(f, "workers must be at least 1 (got 0)")
            }
            OrchestratorError::InvalidDispatchAttempts => {
                write!(f, "max_dispatch_attempts must be at least 1 (got 0)")
            }
            OrchestratorError::Persist(e) => write!(f, "{e}"),
            OrchestratorError::WorkerUnavailable(msg) => {
                write!(f, "worker transport unavailable: {msg}")
            }
            OrchestratorError::Executor(msg) => write!(f, "shard executor failed: {msg}"),
        }
    }
}

impl std::error::Error for OrchestratorError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            OrchestratorError::Persist(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for OrchestratorError {
    fn from(e: PersistError) -> Self {
        OrchestratorError::Persist(e)
    }
}

/// What a session produced: every task's output, in task order. A task
/// that cannot complete fails the whole session with a typed error
/// instead, so either the full `(config, K, E)` result exists or no
/// result does.
#[derive(Default)]
pub struct SessionOutcome {
    pub shards: Vec<ShardOutput>,
    /// What supervision did along the way (all zero for transports
    /// without supervision).
    pub supervision: SupervisionCounts,
}

/// Everything one transport needs to run one shard: the campaign config,
/// the shard plan, and the run-level wiring (the cache handle for
/// in-process execution, the shard's telemetry lane, and an optional
/// checkpoint to resume from). Each task runs on one thread, so the
/// worker count bounds how many external compilers spawn at once.
#[derive(Clone)]
pub struct ShardTask {
    /// The parent campaign's configuration.
    pub config: CampaignConfig,
    /// The shard plan to execute.
    pub spec: ShardSpec,
    /// Shared differential-testing result cache (in-process transports
    /// only; out-of-process workers run uncached — the cache is
    /// semantically transparent, so results are unaffected).
    pub cache: Option<Arc<ResultCache>>,
    /// This shard's telemetry lane. Out-of-process transports absorb the
    /// worker's exported counters into it at each barrier.
    pub telemetry: Telemetry,
    /// Resume from this barrier checkpoint instead of starting fresh.
    pub checkpoint: Option<RunnerCheckpoint>,
}

/// Observes shard progress as it happens: progress ticks while a task
/// runs and one call per completed shard. The campaign driver behind
/// [`Orchestrator`](crate::Orchestrator) and [`Scheduler`](crate::Scheduler)
/// has one sink: it writes each completed shard's file into its campaign's
/// run directory (when it has one) and keeps each campaign's wall-clock
/// window. `task` is the index into the `tasks` slice passed to
/// [`ShardExecutor::begin`].
pub trait ProgressSink: Sync {
    /// Task `task` made progress: in process, once per program; out of
    /// process, once per segment result accepted at a barrier.
    fn progress(&self, task: usize);
    /// Task `task` ran its full budget; `output` is its final summary.
    fn complete(&self, task: usize, output: &ShardOutput);
}

/// A sink that observes nothing (memory-only runs).
#[derive(Debug, Default, Clone, Copy)]
pub struct NullSink;

impl ProgressSink for NullSink {
    fn progress(&self, _task: usize) {}
    fn complete(&self, _task: usize, _output: &ShardOutput) {}
}

/// A transport for running shard tasks. Implementations are cheap,
/// reusable handles; all per-run state lives in the [`ShardSession`]
/// returned by [`ShardExecutor::begin`].
pub trait ShardExecutor: Send + Sync + fmt::Debug {
    /// Short stable name for logs (`"in-process"`, `"workers"`).
    fn name(&self) -> &'static str;

    /// Whether the shared [`ShardTask::cache`] handles are actually
    /// consulted by this transport. Out-of-process executors return
    /// `false`: their workers run uncached, so coordinator-side cache
    /// statistics would be meaningless.
    fn shares_cache(&self) -> bool {
        true
    }

    /// Start a session over `tasks`. Progress reaches `sink` as it
    /// happens (subject to the transport's delivery granularity: an
    /// out-of-process executor reports it at epoch barriers).
    fn begin<'s>(
        &self,
        tasks: Vec<ShardTask>,
        sink: &'s dyn ProgressSink,
    ) -> Result<Box<dyn ShardSession + 's>, OrchestratorError>;
}

/// One run's worth of live shard state behind a [`ShardExecutor`]. The
/// coordinator drives the same barrier protocol against every transport:
/// `run_epoch` for each epoch (with `last = true` on the final one),
/// `inject`/`checkpoints` between epochs, `finish` at the end.
pub trait ShardSession {
    /// Run `segments[i]` programs of task `i` (zero-length segments are
    /// legal no-ops) and return each task's *delta* — the successful
    /// sources it newly found this epoch, in task order, each with its
    /// structural hash. In process those are the hashes the shard's
    /// runner computed when it tested the program; out of process the
    /// coordinator hashes each received source once. With `last` the
    /// tasks also finish: their outputs become available to [`finish`]
    /// and `sink.complete` fires per task; no barrier follows, so a
    /// transport may return empty deltas.
    ///
    /// [`finish`]: ShardSession::finish
    fn run_epoch(
        &mut self,
        segments: &[usize],
        last: bool,
    ) -> Result<Vec<SuccessfulSet>, OrchestratorError>;

    /// Broadcast the epoch's merged deltas into the paused tasks
    /// (`deltas[i]`, its campaign's merged deltas, into task `i`; its set
    /// already holds every earlier broadcast). Injection is a pure
    /// set-merge by the hashes the deltas carry — see
    /// `llm4fp::RunnerCheckpoint::inject_successful` — so transports may
    /// apply it to a live runner or to a stored checkpoint
    /// interchangeably.
    fn inject(&mut self, deltas: &[&SuccessfulSet]) -> Result<(), OrchestratorError>;

    /// Snapshot every paused task for barrier persistence, in task order.
    /// Call after [`inject`](ShardSession::inject), mirroring the
    /// runner-side checkpoint-after-injection order. A task that never
    /// ran is an error.
    fn checkpoints(&mut self) -> Result<Vec<RunnerCheckpoint>, OrchestratorError>;

    /// Collect every task's output, in task order. Only valid after
    /// `run_epoch(.., last = true)` ran.
    fn finish(self: Box<Self>) -> Result<SessionOutcome, OrchestratorError>;
}

/// The in-process transport: shard runners on a worker-thread pool in
/// this process, sharing the result cache directly.
/// This is the refactored classic engine — outputs are bit-identical to
/// the pre-executor code path (pinned by `tests/invariants.rs`).
#[derive(Debug, Clone)]
pub struct InProcessExecutor {
    workers: usize,
}

impl InProcessExecutor {
    /// An executor running tasks on up to `workers` threads (clamped to
    /// at least 1; the orchestrator builder rejects `workers == 0` with
    /// [`OrchestratorError::InvalidWorkers`] before constructing one).
    pub fn new(workers: usize) -> Self {
        InProcessExecutor { workers: workers.max(1) }
    }
}

impl ShardExecutor for InProcessExecutor {
    fn name(&self) -> &'static str {
        "in-process"
    }

    fn begin<'s>(
        &self,
        tasks: Vec<ShardTask>,
        sink: &'s dyn ProgressSink,
    ) -> Result<Box<dyn ShardSession + 's>, OrchestratorError> {
        let slots = tasks.iter().map(|_| Mutex::new(None)).collect();
        let outputs = tasks.iter().map(|_| Mutex::new(None)).collect();
        Ok(Box::new(InProcessSession {
            workers: self.workers,
            tasks,
            sink,
            slots,
            outputs,
            pool_start: Instant::now(),
        }))
    }
}

/// Build the live runner for one task (first time its segment runs).
/// Construction happens lazily inside the pool so its cost parallelizes
/// with the rest of the shard's work.
fn build_runner(task: &ShardTask) -> ShardRunner {
    match task.checkpoint.clone() {
        Some(checkpoint) => {
            ShardRunner::from_checkpoint(&task.config, task.spec, task.cache.clone(), checkpoint)
        }
        None => ShardRunner::new(&task.config, task.spec, task.cache.clone()),
    }
    .with_telemetry(task.telemetry.clone())
}

struct InProcessSession<'s> {
    workers: usize,
    tasks: Vec<ShardTask>,
    sink: &'s dyn ProgressSink,
    /// Lazily constructed runners; `None` before the first segment and
    /// after the finishing one.
    slots: Vec<Mutex<Option<ShardRunner>>>,
    outputs: Vec<Mutex<Option<ShardOutput>>>,
    pool_start: Instant,
}

impl ShardSession for InProcessSession<'_> {
    fn run_epoch(
        &mut self,
        segments: &[usize],
        last: bool,
    ) -> Result<Vec<SuccessfulSet>, OrchestratorError> {
        debug_assert_eq!(segments.len(), self.tasks.len());
        let deltas = run_indexed(self.tasks.len(), self.workers, |task| {
            let telemetry = &self.tasks[task].telemetry;
            telemetry.observe(keys::QUEUE_WAIT, self.pool_start.elapsed());
            let _span = telemetry.span(keys::SPAN_SHARD_RUN);
            let mut slot = self.slots[task].lock().unwrap();
            let runner = slot.get_or_insert_with(|| build_runner(&self.tasks[task]));
            let delta = runner.run_segment_hashed(segments[task], |_| self.sink.progress(task));
            if last {
                let output = slot.take().expect("runner present").finish();
                self.sink.complete(task, &output);
                *self.outputs[task].lock().unwrap() = Some(output);
            }
            delta
        });
        Ok(deltas)
    }

    fn inject(&mut self, deltas: &[&SuccessfulSet]) -> Result<(), OrchestratorError> {
        debug_assert_eq!(deltas.len(), self.slots.len());
        for (slot, delta) in self.slots.iter().zip(deltas) {
            if let Some(runner) = slot.lock().unwrap().as_mut() {
                runner.inject(delta);
            }
        }
        Ok(())
    }

    fn checkpoints(&mut self) -> Result<Vec<RunnerCheckpoint>, OrchestratorError> {
        self.slots
            .iter()
            .map(|slot| {
                slot.lock().unwrap().as_ref().map(ShardRunner::checkpoint).ok_or_else(|| {
                    OrchestratorError::Executor(
                        "checkpoint requested for a task that never ran".into(),
                    )
                })
            })
            .collect()
    }

    fn finish(self: Box<Self>) -> Result<SessionOutcome, OrchestratorError> {
        let outputs = self
            .outputs
            .into_iter()
            .map(|slot| {
                slot.into_inner().unwrap().ok_or_else(|| {
                    OrchestratorError::Executor("finish called before the final epoch ran".into())
                })
            })
            .collect::<Result<Vec<ShardOutput>, OrchestratorError>>()?;
        Ok(SessionOutcome { shards: outputs, ..SessionOutcome::default() })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{plan_epoch_segments, plan_shards, run_shard, ShardCtx};
    use llm4fp::ApproachKind;

    fn config(budget: usize, seed: u64) -> CampaignConfig {
        CampaignConfig::new(ApproachKind::Llm4Fp)
            .with_budget(budget)
            .with_seed(seed)
            .with_threads(1)
    }

    fn tasks_for(config: &CampaignConfig, shards: usize) -> Vec<ShardTask> {
        plan_shards(config, shards)
            .into_iter()
            .map(|spec| ShardTask {
                config: config.clone(),
                spec,
                cache: None,
                telemetry: Telemetry::disabled(),
                checkpoint: None,
            })
            .collect()
    }

    #[test]
    fn a_single_epoch_session_reproduces_run_shard() {
        let config = config(12, 5);
        let specs = plan_shards(&config, 3);
        let executor = InProcessExecutor::new(2);
        let mut session = executor.begin(tasks_for(&config, 3), &NullSink).unwrap();
        let budgets: Vec<usize> = specs.iter().map(|s| s.budget).collect();
        session.run_epoch(&budgets, true).unwrap();
        let outputs = session.finish().unwrap().shards;
        for (spec, output) in specs.iter().zip(&outputs) {
            let direct = run_shard(spec, &ShardCtx::new(&config));
            assert_eq!(output.records, direct.records);
            assert_eq!(output.successful_sources, direct.successful_sources);
        }
    }

    #[test]
    fn epoch_segments_with_injection_match_a_manual_runner() {
        let config = config(16, 9);
        let spec = plan_shards(&config, 1)[0];
        let segments = plan_epoch_segments(spec.budget, 2);

        let executor = InProcessExecutor::new(1);
        let mut session = executor
            .begin(
                vec![ShardTask {
                    config: config.clone(),
                    spec,
                    cache: None,
                    telemetry: Telemetry::disabled(),
                    checkpoint: None,
                }],
                &NullSink,
            )
            .unwrap();
        let deltas = session.run_epoch(&segments[..1], false).unwrap();
        let pool = deltas[0].clone();
        assert!(!pool.is_empty(), "the first segment finds something to exchange");
        session.inject(&[&pool]).unwrap();
        let checkpoints = session.checkpoints().unwrap();
        session.run_epoch(&[segments[1]], true).unwrap();
        let output = session.finish().unwrap().shards.remove(0);

        let mut manual = ShardRunner::new(&config, spec, None);
        let manual_delta = manual.run_segment(segments[0], |_| {});
        assert_eq!(manual_delta, pool.sources());
        manual.inject(&pool);
        let mut manual_checkpoint = manual.checkpoint();
        // Wall clocks never replay; everything else must.
        manual_checkpoint.pipeline_time = checkpoints[0].pipeline_time;
        assert_eq!(checkpoints[0], manual_checkpoint);
        manual.run_segment(segments[1], |_| {});
        let manual_output = manual.finish();
        assert_eq!(output.records, manual_output.records);
        assert_eq!(output.successful_sources, manual_output.successful_sources);
        assert_eq!(output.aggregates, manual_output.aggregates);
    }

    #[test]
    fn in_process_deltas_carry_the_hashes_run_one_computed() {
        let config = config(40, 13);
        let specs = plan_shards(&config, 2);
        let executor = InProcessExecutor::new(2);
        let mut session = executor.begin(tasks_for(&config, 2), &NullSink).unwrap();
        let mut ids: Vec<Vec<String>> = vec![Vec::new(); specs.len()];
        // Only the deltas of epochs a barrier follows are merged.
        for epoch in 0..3 {
            let plan: Vec<usize> =
                specs.iter().map(|spec| plan_epoch_segments(spec.budget, 3)[epoch]).collect();
            let deltas = session.run_epoch(&plan, epoch == 2).unwrap();
            if epoch == 2 {
                break;
            }
            for (task, delta) in deltas.iter().enumerate() {
                assert!(!delta.is_empty(), "task {task} epoch {epoch} found nothing");
                for (hash, source) in delta.hashes().iter().zip(delta.sources()) {
                    assert_eq!(*hash, llm4fp_fpir::source_hash(source));
                    ids[task].push(llm4fp_fpir::hash_id(*hash));
                }
            }
        }
        // Each hash is the one `run_one` recorded as a successful
        // program's id, in the order the shard found them.
        for (task, output) in session.finish().unwrap().shards.into_iter().enumerate() {
            let successful: Vec<&String> =
                output.records.iter().filter(|r| r.successful).map(|r| &r.program_id).collect();
            let mut found = successful.into_iter();
            for id in &ids[task] {
                assert!(found.any(|recorded| recorded == id), "task {task}: {id} out of order");
            }
        }
    }

    #[test]
    fn errors_render_and_convert() {
        assert!(OrchestratorError::InvalidWorkers.to_string().contains("at least 1"));
        assert!(OrchestratorError::InvalidDispatchAttempts.to_string().contains("at least 1"));
        assert!(OrchestratorError::Executor("boom".into()).to_string().contains("boom"));
        assert!(OrchestratorError::WorkerUnavailable("no binary".into())
            .to_string()
            .contains("no binary"));
        let persist: OrchestratorError =
            PersistError::corrupt(crate::persist::Artifact::Manifest, "bad manifest").into();
        assert!(persist.to_string().contains("bad manifest"));
        assert!(persist.to_string().contains("manifest"));
    }
}
