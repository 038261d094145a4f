//! The transport-agnostic shard execution layer.
//!
//! [`ShardExecutor`] is the seam between the orchestrator's *planning*
//! (shard decomposition, epoch barriers, delta merging, persistence) and
//! the *mechanics* of running shard jobs somewhere. Every executor runs
//! under the same [`Session`], which holds each shard's state between
//! epochs; an executor only contributes the [`ShardTransport`] that runs
//! one epoch's jobs:
//!
//! ```text
//!   orchestrate::drive               ShardExecutor::begin(tasks)
//!   (Orchestrator | Scheduler)                      |
//!            |                  Session { checkpoints, outputs, transport }
//!            +------------------+-------------------+
//!                               |
//!   per epoch:  run_epoch(segments, last): jobs from the checkpoints
//!                 -> ShardTransport::run_jobs(jobs) -> answers, in job order
//!                 -> fold: checkpoints (pools filled) + hashed deltas,
//!                    or outputs
//!   at barrier: inject(merged hashed deltas) into the checkpoints,
//!               checkpoints() for persistence
//!   at the end: finish() -> SessionOutcome
//! ```
//!
//! Everything a transport needs to run one shard is a serializable
//! [`ShardJob`]; everything it produces is a serializable
//! [`ShardJobResult`] — the same contract the JSON run directory already
//! persists, promoted to a wire contract. Every job runs through one
//! function, [`run_job`]: restore the shard from the job's checkpoint (or
//! start it fresh), run the segment, answer with the checkpoint or the
//! output. Two transports share everything else, and each writes a
//! finished shard's file into its task's run directory (if any):
//!
//! * [`InProcessExecutor`] — [`run_indexed`] over a worker-thread pool
//!   inside this process; it writes each shard's file on the pool thread
//!   as the shard's final segment returns, so a run killed mid-epoch keeps
//!   every shard that finished;
//! * [`crate::WorkerExecutor`] — `llm4fp-worker` daemon processes dialing
//!   a TCP coordinator (`llm4fp-worker --connect`) and fed
//!   length-prefixed JSON jobs (see [`crate::wire`]), supervised by
//!   leases, heartbeats, reconnect-and-resume, respawn and
//!   crash-and-redispatch (see [`crate::remote`]); it writes the shard
//!   files at the final epoch's fold.
//!
//! Determinism is preserved across transports because a shard segment is
//! a pure function of `(config, spec, checkpoint, segment length)`:
//! whichever process computes it — and however many times a crash makes
//! it recompute — the bytes that reach the barrier are identical.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use llm4fp::CampaignConfig;
use llm4fp::{RunnerCheckpoint, SuccessfulSet, SuccessfulSetSnapshot};
use llm4fp_difftest::ResultCache;
use llm4fp_telemetry::{keys, Telemetry};

use crate::persist::{PersistError, RunDir};
use crate::pool::run_indexed;
use crate::shard::{run_job, ShardOutput, ShardSpec};
use crate::supervisor::SupervisionCounts;
use crate::wire::{ShardJob, ShardJobResult};

/// Errors from orchestrated execution.
#[derive(Debug)]
pub enum OrchestratorError {
    /// `workers == 0` was requested. Worker counts are validated at the
    /// API boundary instead of being silently clamped.
    InvalidWorkers,
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
    /// Bytes of wire frames moved: job frames written plus result frames
    /// read (0 in process).
    pub frame_bytes: u64,
}

/// Everything one session needs to run one shard: the campaign config,
/// the shard plan, and the run-level wiring (the run's result cache for
/// an external-backend campaign, the shard's telemetry lane, its
/// campaign's run directory and an optional checkpoint to resume from).
/// Each job runs on one thread, so the worker count bounds how many
/// external compilers spawn at once.
#[derive(Clone)]
pub struct ShardTask {
    /// The parent campaign's configuration.
    pub config: CampaignConfig,
    /// The shard plan to execute.
    pub spec: ShardSpec,
    /// The run's result cache, for external-backend campaigns only. Only
    /// the in-process transport consults it; out-of-process workers run
    /// uncached — the cache is semantically transparent, so results are
    /// unaffected.
    pub cache: Option<Arc<ResultCache>>,
    /// This shard's telemetry lane. Out-of-process answers carry the
    /// worker's counters, which the session absorbs into it.
    pub telemetry: Telemetry,
    /// The campaign's run directory, which receives the shard's file when
    /// the shard finishes (`None` for runs in memory).
    pub run_dir: Option<RunDir>,
    /// Resume from this barrier checkpoint instead of starting fresh.
    pub checkpoint: Option<RunnerCheckpoint>,
}

/// Write a finished shard's file into its campaign's run directory, if
/// it has one. A failed write counts as a persist error: a missing shard
/// file only costs recompute on resume, never the computation.
pub(crate) fn persist_output(run_dir: Option<&RunDir>, output: &ShardOutput) {
    if let Some(dir) = run_dir {
        if dir.write_shard(output).is_err() {
            dir.note_persist_error();
        }
    }
}

/// A way of running shard jobs. Implementations are cheap, reusable
/// handles; all per-run state lives in the [`Session`] returned by
/// [`ShardExecutor::begin`] and the [`ShardTransport`] it runs on.
pub trait ShardExecutor: Send + Sync + fmt::Debug {
    /// Open this executor's transport for a session over `tasks`.
    fn connect(&self, tasks: &[ShardTask]) -> Result<Box<dyn ShardTransport>, OrchestratorError>;

    /// Start a session over `tasks` on this executor's transport.
    fn begin(&self, tasks: Vec<ShardTask>) -> Result<Session, OrchestratorError> {
        let transport = self.connect(&tasks)?;
        Ok(Session::new(tasks, transport))
    }
}

/// What a [`Session`] runs its jobs on. A transport holds no shard state
/// between epochs: each job carries everything its shard needs. It
/// writes each finished shard's file into the shard's run directory
/// ([`ShardTask::run_dir`]).
pub trait ShardTransport {
    /// Run one epoch's jobs (`jobs[i]` is task `i`'s) and return their
    /// answers in job order.
    fn run_jobs(&mut self, jobs: Vec<ShardJob>) -> Result<Vec<ShardJobResult>, OrchestratorError>;

    /// Tear the transport down and report the frames it moved and what
    /// its supervision did; the session fills in the shards.
    fn finish(self: Box<Self>) -> SessionOutcome;
}

/// One run's shard state between epochs, the same for every executor.
/// The session owns each task's barrier checkpoint and final output. Each
/// epoch it moves every checkpoint into its task's [`ShardJob`], has the
/// transport run the jobs, and folds the answers back: a paused shard's
/// checkpoint gets its pool filled (`fill_answer_pool`) and its delta
/// returned under the hashes the answer carried; a finished shard's output
/// is kept. A barrier injects the merged deltas into the checkpoints by
/// hash ([`RunnerCheckpoint::inject_successful`]).
pub struct Session {
    /// The session's tasks, in task order.
    tasks: Vec<ShardTask>,
    /// Each task's checkpoint at the latest barrier (its restored one, or
    /// none, before the first epoch).
    checkpoints: Vec<Option<RunnerCheckpoint>>,
    /// Each task's final output, filled by the last epoch.
    outputs: Vec<Option<ShardOutput>>,
    transport: Box<dyn ShardTransport>,
}

impl Session {
    fn new(mut tasks: Vec<ShardTask>, transport: Box<dyn ShardTransport>) -> Self {
        let checkpoints = tasks.iter_mut().map(|task| task.checkpoint.take()).collect();
        let outputs = tasks.iter().map(|_| None).collect();
        Session { tasks, checkpoints, outputs, transport }
    }

    /// Run `segments[i]` programs of task `i` (zero-length segments are
    /// legal no-ops) and return each task's *delta* — the successful
    /// sources it newly found this epoch, in task order, each with the
    /// structural hash the shard's runner computed when it tested the
    /// program; nothing here hashes a source. With `last` the tasks
    /// finish instead: their outputs become available to
    /// [`finish`](Session::finish), no barrier follows, and the deltas
    /// are empty.
    pub fn run_epoch(
        &mut self,
        segments: &[usize],
        last: bool,
    ) -> Result<Vec<SuccessfulSet>, OrchestratorError> {
        debug_assert_eq!(segments.len(), self.tasks.len());
        // Each job takes its task's checkpoint along; the session keeps
        // the pool it was sent with, to fill the answer's.
        let mut sent = Vec::with_capacity(self.tasks.len());
        let mut jobs = Vec::with_capacity(self.tasks.len());
        for ((task, checkpoint), &segment) in
            self.tasks.iter().zip(&mut self.checkpoints).zip(segments)
        {
            let checkpoint = checkpoint.take();
            sent.push(checkpoint.as_ref().map(|sent| sent.successful.clone()));
            jobs.push(ShardJob {
                config: task.config.clone(),
                spec: task.spec,
                segment,
                finish: last,
                checkpoint,
                process_slots: 1,
                telemetry: task.telemetry.is_enabled(),
                lease: 0,
            });
        }
        let results = self.transport.run_jobs(jobs)?;
        let mut deltas = Vec::with_capacity(results.len());
        for (job, (result, sent)) in results.into_iter().zip(sent).enumerate() {
            if let Some(snapshot) = &result.telemetry {
                if !snapshot.is_empty() {
                    self.tasks[job].telemetry.absorb(snapshot);
                }
            }
            let violation = |why: String| {
                OrchestratorError::Executor(format!("protocol violation: shard job {job} {why}"))
            };
            if last {
                deltas.push(SuccessfulSet::new());
                let output =
                    result.output.ok_or_else(|| violation("finished without output".into()))?;
                self.outputs[job] = Some(output);
            } else {
                let mut checkpoint = result
                    .checkpoint
                    .ok_or_else(|| violation("paused without a checkpoint".into()))?;
                let delta =
                    fill_answer_pool(sent.as_ref(), &mut checkpoint.successful, result.delta)
                        .map_err(|why| violation(format!("answered {why}")))?;
                deltas.push(delta);
                self.checkpoints[job] = Some(checkpoint);
            }
        }
        Ok(deltas)
    }

    /// Broadcast the epoch's merged deltas into the paused tasks'
    /// checkpoints (`deltas[i]`, its campaign's merged deltas, into task
    /// `i`; its pool already holds every earlier broadcast), by the hashes
    /// they carry — see [`RunnerCheckpoint::inject_successful`].
    pub fn inject(&mut self, deltas: &[&SuccessfulSet]) -> Result<(), OrchestratorError> {
        debug_assert_eq!(deltas.len(), self.checkpoints.len());
        for (job, (checkpoint, delta)) in self.checkpoints.iter_mut().zip(deltas).enumerate() {
            checkpoint.as_mut().ok_or_else(|| never_ran(job))?.inject_successful(delta);
        }
        Ok(())
    }

    /// Every paused task's checkpoint, in task order, for barrier
    /// persistence. Call after [`inject`](Session::inject): checkpoints
    /// are taken after injection.
    pub fn checkpoints(&self) -> Result<Vec<&RunnerCheckpoint>, OrchestratorError> {
        self.checkpoints
            .iter()
            .enumerate()
            .map(|(job, checkpoint)| checkpoint.as_ref().ok_or_else(|| never_ran(job)))
            .collect()
    }

    /// Tear the transport down and collect every task's output, in task
    /// order. Only valid after `run_epoch(.., last = true)` ran.
    pub fn finish(self) -> Result<SessionOutcome, OrchestratorError> {
        let mut outcome = self.transport.finish();
        outcome.shards = self.outputs.into_iter().collect::<Option<_>>().ok_or_else(|| {
            OrchestratorError::Executor("finish called before the final epoch ran".into())
        })?;
        Ok(outcome)
    }
}

fn never_ran(job: usize) -> OrchestratorError {
    OrchestratorError::Executor(format!("shard job {job} has not run an epoch"))
}

/// Fill an answer's pool, which may carry hashes and own flags but no
/// text: its first entries are the pool the job was sent with (`sent`,
/// whose texts the session holds), the rest are the segment's `delta`, in
/// order. Returns the delta as a set, under the hashes the answer
/// carried.
fn fill_answer_pool(
    sent: Option<&SuccessfulSetSnapshot>,
    answer: &mut SuccessfulSetSnapshot,
    delta: Vec<String>,
) -> Result<SuccessfulSet, String> {
    let (sent_sources, sent_hashes) =
        sent.map_or((&[][..], &[][..]), |sent| (&sent.sources[..], &sent.hashes[..]));
    let len = answer.hashes.len();
    if len != sent_hashes.len() + delta.len()
        || answer.own.len() != len
        || answer.sources.len() != len
        || answer.hashes[..sent_hashes.len()] != *sent_hashes
    {
        return Err(format!(
            "a pool of {len} entries that is not the {} it was sent plus its {} finds",
            sent_hashes.len(),
            delta.len()
        ));
    }
    answer.sources = sent_sources.iter().cloned().chain(delta.into_iter().map(Arc::from)).collect();
    let start = sent_hashes.len();
    Ok(SuccessfulSet::restore(SuccessfulSetSnapshot {
        sources: answer.sources[start..].to_vec(),
        hashes: answer.hashes[start..].to_vec(),
        own: answer.own[start..].to_vec(),
    }))
}

/// The in-process executor: each epoch's jobs on a worker-thread pool in
/// this process, where an external campaign's tasks share the run's
/// result cache directly. Outputs are bit-identical to every other
/// executor's (pinned by `tests/invariants.rs` and `tests/remote.rs`).
#[derive(Debug, Clone)]
pub struct InProcessExecutor {
    workers: usize,
}

impl InProcessExecutor {
    /// An executor running jobs on up to `workers` threads (clamped to
    /// at least 1; the orchestrator builder rejects `workers == 0` with
    /// [`OrchestratorError::InvalidWorkers`] before constructing one).
    pub fn new(workers: usize) -> Self {
        InProcessExecutor { workers: workers.max(1) }
    }
}

impl ShardExecutor for InProcessExecutor {
    fn connect(&self, tasks: &[ShardTask]) -> Result<Box<dyn ShardTransport>, OrchestratorError> {
        Ok(Box::new(InProcessTransport {
            workers: self.workers,
            lanes: tasks
                .iter()
                .map(|task| (task.cache.clone(), task.telemetry.clone(), task.run_dir.clone()))
                .collect(),
            pool_start: Instant::now(),
        }))
    }
}

struct InProcessTransport {
    workers: usize,
    /// Each task's result cache (external campaigns only), telemetry lane
    /// and run directory.
    lanes: Vec<(Option<Arc<ResultCache>>, Telemetry, Option<RunDir>)>,
    pool_start: Instant,
}

impl ShardTransport for InProcessTransport {
    fn run_jobs(&mut self, jobs: Vec<ShardJob>) -> Result<Vec<ShardJobResult>, OrchestratorError> {
        let jobs: Vec<Mutex<Option<ShardJob>>> =
            jobs.into_iter().map(|job| Mutex::new(Some(job))).collect();
        Ok(run_indexed(jobs.len(), self.workers, |task| {
            let job = jobs[task].lock().unwrap().take().expect("each job runs once");
            let (cache, telemetry, run_dir) = &self.lanes[task];
            telemetry.observe(keys::QUEUE_WAIT, self.pool_start.elapsed());
            let _span = telemetry.span(keys::SPAN_SHARD_RUN);
            let result = run_job(job, cache.clone(), telemetry.clone());
            if let Some(output) = &result.output {
                persist_output(run_dir.as_ref(), output);
            }
            result
        }))
    }

    fn finish(self: Box<Self>) -> SessionOutcome {
        SessionOutcome::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::shard::{plan_epoch_segments, plan_shards, run_shard, ShardCtx, ShardRunner};
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
                run_dir: None,
                checkpoint: None,
            })
            .collect()
    }

    #[test]
    fn a_single_epoch_session_reproduces_run_shard() {
        let config = config(12, 5);
        let specs = plan_shards(&config, 3);
        let executor = InProcessExecutor::new(2);
        let mut session = executor.begin(tasks_for(&config, 3)).unwrap();
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
            .begin(vec![ShardTask {
                config: config.clone(),
                spec,
                cache: None,
                telemetry: Telemetry::disabled(),
                run_dir: None,
                checkpoint: None,
            }])
            .unwrap();
        let deltas = session.run_epoch(&segments[..1], false).unwrap();
        let pool = deltas[0].clone();
        assert!(!pool.is_empty(), "the first segment finds something to exchange");
        session.inject(&[&pool]).unwrap();
        let checkpoint = session.checkpoints().unwrap()[0].clone();
        session.run_epoch(&[segments[1]], true).unwrap();
        let output = session.finish().unwrap().shards.remove(0);

        let mut manual = ShardRunner::new(&config, spec, None);
        let manual_delta = manual.run_segment(segments[0], |_| {});
        assert_eq!(manual_delta, pool.clone().into_sources());
        manual.inject(&pool);
        let mut manual_checkpoint = manual.checkpoint();
        // Wall clocks never replay; everything else must.
        manual_checkpoint.pipeline_time = checkpoint.pipeline_time;
        assert_eq!(checkpoint, manual_checkpoint);
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
        let mut session = executor.begin(tasks_for(&config, 2)).unwrap();
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
    fn in_process_shard_files_land_before_a_later_task_panics() {
        // One worker runs the tasks one after another. Task 1's config
        // fails validation, so its runner panics before running anything;
        // task 0's shard file, written on the pool thread as its final
        // segment returned, must already be on disk: a run killed mid-way
        // keeps the shard files of every shard that finished.
        let config = config(8, 3);
        let root = std::env::temp_dir()
            .join("llm4fp-orchestrator-tests")
            .join(format!("early-shard-file-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let dir =
            RunDir::open(&root, &crate::persist::RunManifest::new(config.clone(), 2, 1)).unwrap();
        let mut tasks = tasks_for(&config, 2);
        tasks[1].config.grammar_probability = 2.0;
        assert!(tasks[1].config.validate().is_err());
        for task in &mut tasks {
            task.run_dir = Some(dir.clone());
        }
        let budgets: Vec<usize> = tasks.iter().map(|task| task.spec.budget).collect();
        let spec = tasks[0].spec;
        let mut session = InProcessExecutor::new(1).begin(tasks).unwrap();
        let run = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            session.run_epoch(&budgets, true).map(|_| ())
        }));
        assert!(run.is_err(), "task 1's invalid config panics");
        assert!(root.join("shards/shard-0000.json").is_file());
        let stored = dir.load_shard(&spec).expect("task 0's shard file loads");
        assert_eq!(stored.records, run_shard(&spec, &ShardCtx::new(&config)).records);
        assert_eq!(dir.persist_errors(), 0);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn errors_render_and_convert() {
        assert!(OrchestratorError::InvalidWorkers.to_string().contains("at least 1"));
        assert!(OrchestratorError::Executor("boom".into()).to_string().contains("boom"));
        assert!(OrchestratorError::WorkerUnavailable("no binary".into())
            .to_string()
            .contains("no binary"));
        let persist: OrchestratorError = PersistError::Corrupt("bad manifest".into()).into();
        assert!(persist.to_string().contains("bad manifest"));
        assert!(persist.to_string().contains("manifest"));
    }
}
