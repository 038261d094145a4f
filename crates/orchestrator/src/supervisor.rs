//! Transport-shared supervision: lease-based dispatch state and the
//! barrier bookkeeping the out-of-process executor
//! ([`crate::WorkerExecutor`]) folds results through.
//!
//! * [`EpochState`] is one epoch's dispatch ledger. Every dispatch holds
//!   a **lease**: a monotonically increasing generation number stamped
//!   into the job and echoed back in the result. A result is accepted
//!   only while its lease generation is still live; an expired or
//!   superseded lease's answer is *discarded*, never merged — which is
//!   what keeps results a pure function of `(config, K, E)` when a slow
//!   worker answers after its shard was re-dispatched elsewhere.
//! * [`SessionCore`] is the transport-independent half of a
//!   [`crate::executor::ShardSession`]: coordinator-side checkpoints,
//!   quarantine reports, supervision counts, and the epoch fold that
//!   turns accepted results into deltas, sink progress and barrier
//!   state.
//!
//! The executor keeps only what is genuinely its own: sockets,
//! handshakes, heartbeats, reconnect acceptance and process respawn in
//! [`crate::remote`].

use std::collections::VecDeque;

use llm4fp::{RunnerCheckpoint, SuccessfulSet};
use serde::{Deserialize, Error, Serialize, Value};

use crate::executor::{FailurePolicy, OrchestratorError, ProgressSink, SessionOutcome, ShardTask};
use crate::shard::{ShardFailureReport, ShardOutput};
use crate::wire::{ShardJob, ShardJobResult};

/// What supervision did during a run: every recovery that cost time but
/// no bits. Reported in `RunStats` and `summary.json`, never in
/// `metrics.json` — the counts describe this invocation's luck, not the
/// deterministic `(config, K, E)` result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct SupervisionCounts {
    /// Result frames discarded because they did not carry a live lease:
    /// late answers after lease expiry, retransmitted frames, leftovers
    /// of a folded epoch. The executor counts them where they arrive.
    pub stale_results: u64,
    /// Failed dispatches whose job went back into the queue (crash, lease
    /// expiry, dropped connection, protocol violation).
    pub redispatches: u64,
    /// Self-spawned workers the executor respawned after they exited or
    /// were killed.
    pub respawns: u64,
}

/// Missing fields (and a missing object, as in `summary.json` files
/// written before these counts existed) deserialize as zero.
impl Deserialize for SupervisionCounts {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let Some(m) = v.as_obj() else {
            return match v {
                Value::Null => Ok(SupervisionCounts::default()),
                _ => Err(Error::msg("expected object for SupervisionCounts")),
            };
        };
        let field = |name: &str| match m.get(name) {
            None | Some(Value::Null) => Ok(0),
            Some(v) => u64::from_value(v),
        };
        Ok(SupervisionCounts {
            stale_results: field("stale_results")?,
            redispatches: field("redispatches")?,
            respawns: field("respawns")?,
        })
    }
}

/// Why an epoch gave up, and whether the terminal failure means no
/// worker can be had at all (which maps to
/// [`OrchestratorError::WorkerUnavailable`] — the in-process fallback's
/// trigger) rather than a job-execution failure.
pub struct EpochFailure {
    /// Human-readable description of the terminal failure.
    pub message: String,
    /// Whether the failure means "no worker can be had at all".
    pub worker_unavailable: bool,
}

/// One epoch's dispatch ledger (one lock, held only for bookkeeping).
///
/// Jobs are indexed positions into the session's task list. Each
/// dispatch is identified by its lease generation, and a job holds at
/// most one live lease: only queued jobs are leased, and only the live
/// lease's answer is accepted. Anything else is refused; the executor
/// counts it as stale.
pub struct EpochState {
    /// Jobs not currently leased anywhere (fresh or requeued).
    queue: VecDeque<usize>,
    /// The live lease generation per job (0: none).
    leases: Vec<u64>,
    /// Failed attempts per job.
    attempts: Vec<u8>,
    /// Last failure per job, for quarantine reports.
    last_error: Vec<Option<String>>,
    done: Vec<bool>,
    remaining: usize,
    results: Vec<Option<ShardJobResult>>,
    /// Jobs that exhausted their budget under the quarantine policy this
    /// epoch (sticky `done`, no result, no requeue).
    quarantined: Vec<bool>,
    failed: Option<EpochFailure>,
    /// Failed dispatches whose job was requeued.
    redispatches: u64,
    /// The next lease generation to hand out (0 is never issued). The
    /// session carries it across epochs, so a leftover answer from a
    /// folded epoch can never carry a live lease.
    next_lease: u64,
    max_attempts: u8,
    policy: FailurePolicy,
}

impl EpochState {
    /// Dispatch state over `jobs` jobs, skipping the ones already
    /// quarantined in earlier epochs.
    pub fn new(
        jobs: usize,
        already_quarantined: &[bool],
        max_attempts: u8,
        policy: FailurePolicy,
    ) -> Self {
        debug_assert_eq!(already_quarantined.len(), jobs);
        let queue: VecDeque<usize> = (0..jobs).filter(|&job| !already_quarantined[job]).collect();
        let remaining = queue.len();
        EpochState {
            queue,
            leases: vec![0; jobs],
            attempts: vec![0; jobs],
            last_error: (0..jobs).map(|_| None).collect(),
            done: already_quarantined.to_vec(),
            remaining,
            results: (0..jobs).map(|_| None).collect(),
            quarantined: vec![false; jobs],
            failed: None,
            redispatches: 0,
            next_lease: 1,
            max_attempts,
            policy,
        }
    }

    /// Whether the epoch is over (every job answered or the epoch
    /// failed) — the dispatch loops' exit condition.
    pub fn is_settled(&self) -> bool {
        self.failed.is_some() || self.remaining == 0
    }

    /// Fail the whole epoch from outside the per-job budget accounting
    /// (the executor's worker-starvation deadline uses this).
    pub fn fail(&mut self, failure: EpochFailure) {
        if self.failed.is_none() {
            self.failed = Some(failure);
        }
    }

    /// Lease the next queued job to an idle worker; a job that is
    /// already running is never leased twice. Returns the job index and
    /// the new lease generation.
    pub fn next_job(&mut self) -> Option<(usize, u64)> {
        let job = self.queue.pop_front()?;
        let lease = self.next_lease;
        self.next_lease += 1;
        self.leases[job] = lease;
        Some((job, lease))
    }

    /// Whether `lease` is `job`'s live lease.
    fn is_live(&self, job: usize, lease: u64) -> bool {
        lease != 0 && self.leases[job] == lease
    }

    /// A dispatch answered under `lease`. The answer is accepted (and
    /// `true` returned) only under the job's live lease, which also
    /// means the job is not done yet. An answer under an expired or
    /// abandoned lease returns `false` and is dropped: the job has been
    /// requeued, and this result must not race the recomputation.
    pub fn complete(&mut self, job: usize, lease: u64, result: ShardJobResult) -> bool {
        if !self.is_live(job, lease) {
            return false;
        }
        self.leases[job] = 0;
        self.done[job] = true;
        self.remaining -= 1;
        self.results[job] = Some(result);
        true
    }

    /// The dispatch under `lease` failed (crash, hang past the lease
    /// deadline, dropped connection, protocol violation). The live lease
    /// dies and the job requeues, unless it ran out of attempts — then
    /// the failure policy decides between failing the epoch and
    /// quarantining the job. A lease that is no longer live changes
    /// nothing.
    pub fn abandon(&mut self, job: usize, lease: u64, why: String) {
        if !self.is_live(job, lease) {
            return;
        }
        self.leases[job] = 0;
        self.attempts[job] += 1;
        if self.attempts[job] >= self.max_attempts {
            let budget = self.max_attempts;
            match self.policy {
                FailurePolicy::Abort => {
                    self.failed = Some(EpochFailure {
                        message: format!(
                            "shard job {job} failed {budget} time(s); last error: {why}"
                        ),
                        worker_unavailable: false,
                    });
                }
                FailurePolicy::Quarantine => {
                    self.quarantined[job] = true;
                    self.done[job] = true;
                    self.remaining -= 1;
                }
            }
            self.last_error[job] = Some(why);
        } else {
            self.last_error[job] = Some(why);
            self.redispatches += 1;
            self.queue.push_front(job);
        }
    }
}

/// The transport-independent half of an out-of-process shard session:
/// the task list, coordinator-side barrier state, quarantine ledger and
/// the epoch fold. A transport owns one [`SessionCore`], builds an
/// [`EpochState`] per epoch, moves jobs and results however it likes,
/// and folds the settled state back in.
pub struct SessionCore<'s> {
    /// The session's tasks, in task order.
    pub tasks: Vec<ShardTask>,
    sink: &'s dyn ProgressSink,
    max_attempts: u8,
    policy: FailurePolicy,
    /// Tasks quarantined in *any* epoch so far (sticky for the session).
    quarantined: Vec<bool>,
    /// Failure report per quarantined task.
    failures: Vec<Option<ShardFailureReport>>,
    /// Coordinator-side shard state between epochs.
    checkpoints: Vec<Option<RunnerCheckpoint>>,
    outputs: Vec<Option<ShardOutput>>,
    /// The first lease generation of the next epoch.
    next_lease: u64,
    /// Supervision counts so far; the executor adds its respawns and
    /// stale results before [`outcome`](Self::outcome).
    pub supervision: SupervisionCounts,
}

impl<'s> SessionCore<'s> {
    /// A core over `tasks`, reporting progress and completed shards to
    /// `sink`. Restored tasks start from their barrier checkpoints.
    pub fn new(
        tasks: Vec<ShardTask>,
        sink: &'s dyn ProgressSink,
        max_attempts: u8,
        policy: FailurePolicy,
    ) -> Self {
        SessionCore {
            quarantined: vec![false; tasks.len()],
            failures: tasks.iter().map(|_| None).collect(),
            checkpoints: tasks.iter().map(|task| task.checkpoint.clone()).collect(),
            outputs: Vec::new(),
            next_lease: 1,
            supervision: SupervisionCounts::default(),
            tasks,
            sink,
            max_attempts,
            policy,
        }
    }

    /// A fresh dispatch ledger for the next epoch, skipping quarantined
    /// tasks. Its leases continue where the last epoch's stopped.
    pub fn epoch_state(&self) -> EpochState {
        let mut state =
            EpochState::new(self.tasks.len(), &self.quarantined, self.max_attempts, self.policy);
        state.next_lease = self.next_lease;
        state
    }

    /// The wire job for one dispatch of `job`, stamped with its lease.
    pub fn build_job(&self, job: usize, segment: usize, finish: bool, lease: u64) -> ShardJob {
        let task = &self.tasks[job];
        ShardJob {
            config: task.config.clone(),
            spec: task.spec,
            segment,
            finish,
            checkpoint: self.checkpoints[job].clone(),
            process_slots: task.process_slots,
            telemetry: task.telemetry.is_enabled(),
            lease,
        }
    }

    /// Fold one settled epoch back into the session: translate a failed
    /// epoch into its typed error, absorb this epoch's quarantine
    /// decisions, then — single-threaded, in task order — absorb worker
    /// counters (exactly once per job; stale results were discarded),
    /// tick the sink once per accepted result, and store barrier state
    /// or final outputs (completing each finished shard in the sink).
    /// Returns each task's delta, with every received source hashed
    /// here once, so the barrier merges and injects by hash (with `last`
    /// no barrier follows, and the deltas are returned empty). The
    /// epoch's redispatches add to [`Self::supervision`].
    pub fn fold_epoch(
        &mut self,
        mut state: EpochState,
        last: bool,
    ) -> Result<Vec<SuccessfulSet>, OrchestratorError> {
        self.next_lease = state.next_lease;
        self.supervision.redispatches += state.redispatches;
        if let Some(failure) = state.failed.take() {
            return Err(if failure.worker_unavailable {
                OrchestratorError::WorkerUnavailable(failure.message)
            } else {
                OrchestratorError::Executor(failure.message)
            });
        }
        // Fold this epoch's quarantine decisions into the session; the
        // reports surface through `outcome` and `RunStats::failures`.
        for job in 0..self.tasks.len() {
            if state.quarantined[job] && !self.quarantined[job] {
                self.quarantined[job] = true;
                self.failures[job] = Some(ShardFailureReport {
                    shard: self.tasks[job].spec.index,
                    attempts: u32::from(state.attempts[job]),
                    last_error: state.last_error[job].clone().unwrap_or_default(),
                });
            }
        }
        let mut deltas = Vec::with_capacity(self.tasks.len());
        if last {
            self.outputs = (0..self.tasks.len()).map(|_| None).collect();
        }
        for (job, result) in state.results.iter_mut().enumerate() {
            if self.quarantined[job] {
                deltas.push(SuccessfulSet::new());
                continue;
            }
            let result = result.take().ok_or_else(|| {
                OrchestratorError::Executor(format!("shard job {job} never completed"))
            })?;
            if let Some(snapshot) = &result.telemetry {
                if !snapshot.is_empty() {
                    self.tasks[job].telemetry.absorb(snapshot);
                }
            }
            let mut delta = SuccessfulSet::new();
            if !last {
                delta.merge_sources(&result.delta);
            }
            deltas.push(delta);
            self.sink.progress(job);
            if last {
                let output = result.output.ok_or_else(|| {
                    OrchestratorError::Executor(format!(
                        "protocol violation: no output for finished shard job {job}"
                    ))
                })?;
                self.sink.complete(job, &output);
                self.outputs[job] = Some(output);
            } else {
                let checkpoint = result.checkpoint.ok_or_else(|| {
                    OrchestratorError::Executor(format!(
                        "protocol violation: no checkpoint for paused shard job {job}"
                    ))
                })?;
                self.checkpoints[job] = Some(checkpoint);
            }
        }
        Ok(deltas)
    }

    /// Broadcast the epoch's merged deltas into the stored checkpoints by
    /// the hashes they carry (commutative with runner-side injection —
    /// see `RunnerCheckpoint::inject_successful`).
    pub fn inject(&mut self, deltas: &[&SuccessfulSet]) -> Result<(), OrchestratorError> {
        debug_assert_eq!(deltas.len(), self.checkpoints.len());
        for (job, delta) in deltas.iter().enumerate() {
            if self.quarantined[job] {
                continue;
            }
            let checkpoint = self.checkpoints[job].as_mut().ok_or_else(|| {
                OrchestratorError::Executor(format!(
                    "inject before shard job {job} ever ran an epoch"
                ))
            })?;
            checkpoint.inject_successful(delta);
        }
        Ok(())
    }

    /// Snapshot every paused task for barrier persistence (`None` for a
    /// quarantined task — it has no live barrier state).
    pub fn checkpoints(&mut self) -> Result<Vec<Option<RunnerCheckpoint>>, OrchestratorError> {
        self.checkpoints
            .iter()
            .enumerate()
            .map(|(job, checkpoint)| {
                if self.quarantined[job] {
                    // A quarantined job has no live barrier state; its
                    // stale checkpoint (if any) must not be persisted as
                    // if the barrier were complete.
                    return Ok(None);
                }
                checkpoint.clone().map(Some).ok_or_else(|| {
                    OrchestratorError::Executor(format!(
                        "checkpoint requested before shard job {job} ever ran"
                    ))
                })
            })
            .collect()
    }

    /// Collect every task's outcome after the final epoch: its output,
    /// or the quarantine report explaining why it has none.
    pub fn outcome(&mut self) -> Result<SessionOutcome, OrchestratorError> {
        let outputs = std::mem::take(&mut self.outputs);
        if outputs.len() != self.tasks.len() {
            return Err(OrchestratorError::Executor(
                "finish called before the final epoch ran".into(),
            ));
        }
        let shards = outputs
            .into_iter()
            .zip(std::mem::take(&mut self.failures))
            .enumerate()
            .map(|(job, (output, failure))| match (output, failure) {
                (Some(output), _) => Ok(Ok(output)),
                (None, Some(report)) => Ok(Err(report)),
                (None, None) => {
                    Err(OrchestratorError::Executor(format!("shard job {job} has no output")))
                }
            })
            .collect::<Result<Vec<_>, OrchestratorError>>()?;
        Ok(SessionOutcome { shards, supervision: self.supervision })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::remote::MAX_DISPATCH_ATTEMPTS;

    fn abort_state(jobs: usize) -> EpochState {
        EpochState::new(jobs, &vec![false; jobs], MAX_DISPATCH_ATTEMPTS, FailurePolicy::Abort)
    }

    fn answer(index: usize, lease: u64) -> ShardJobResult {
        ShardJobResult {
            index,
            delta: vec!["a".into()],
            checkpoint: None,
            output: None,
            telemetry: None,
            lease,
        }
    }

    #[test]
    fn dispatch_state_requeues_failures_and_caps_attempts() {
        let mut state = abort_state(2);
        let (job_a, lease_a) = state.next_job().unwrap();
        assert_eq!(job_a, 0);
        assert_eq!(state.next_job().map(|(job, _)| job), Some(1));
        // Worker holding job 0 crashes twice; job re-enters the queue.
        state.abandon(0, lease_a, "crash".into());
        assert!(state.failed.is_none());
        let (job, lease) = state.next_job().unwrap();
        assert_eq!(job, 0);
        state.abandon(0, lease, "crash".into());
        let (job, lease) = state.next_job().unwrap();
        assert_eq!(job, 0);
        // Third failure exhausts the attempt budget.
        state.abandon(0, lease, "crash".into());
        let failure = state.failed.as_ref().unwrap();
        assert!(failure.message.contains("3 time(s)"));
        assert!(!failure.worker_unavailable);
        assert!(state.is_settled());
        // Two failures requeued the job; the third exhausted it.
        assert_eq!(state.redispatches, 2);
    }

    #[test]
    fn supervision_counts_read_zero_when_absent() {
        // `summary.json` files written before the counts existed carry no
        // `supervision` object at all; partial objects default per field.
        assert_eq!(
            SupervisionCounts::from_value(&Value::Null).unwrap(),
            SupervisionCounts::default()
        );
        let partial: SupervisionCounts = serde_json::from_str(r#"{"respawns": 2}"#).unwrap();
        assert_eq!(partial, SupervisionCounts { respawns: 2, ..SupervisionCounts::default() });
        let full = SupervisionCounts { stale_results: 1, redispatches: 3, respawns: 2 };
        let back: SupervisionCounts =
            serde_json::from_str(&serde_json::to_string(&full).unwrap()).unwrap();
        assert_eq!(back, full);
    }

    #[test]
    fn quarantine_policy_retires_the_job_instead_of_failing_the_epoch() {
        let mut state = EpochState::new(2, &[false, false], 2, FailurePolicy::Quarantine);
        let (job, lease) = state.next_job().unwrap();
        assert_eq!(job, 0);
        state.abandon(0, lease, "crash".into());
        let (job, lease) = state.next_job().unwrap();
        assert_eq!(job, 0);
        state.abandon(0, lease, "crash again".into());
        // Budget exhausted: quarantined, not failed; the epoch continues
        // with the surviving job.
        assert!(state.failed.is_none());
        assert!(state.quarantined[0]);
        assert!(state.done[0]);
        assert_eq!(state.remaining, 1);
        assert_eq!(state.last_error[0].as_deref(), Some("crash again"));
        assert_eq!(state.attempts[0], 2);
        assert_eq!(state.next_job().map(|(job, _)| job), Some(1));
        // Later epochs skip quarantined jobs entirely.
        let later = EpochState::new(2, &[true, false], 2, FailurePolicy::Quarantine);
        assert_eq!(later.remaining, 1);
        assert!(later.done[0]);
        assert_eq!(later.queue, VecDeque::from([1]));
    }

    #[test]
    fn idle_workers_never_duplicate_a_running_job() {
        let mut state = abort_state(1);
        let (job, first) = state.next_job().unwrap();
        assert_eq!(job, 0);
        assert_eq!(state.leases[0], first);
        // Queue empty, job 0 still running: an idle worker gets nothing.
        assert_eq!(state.next_job(), None);
        // An abandon requeues the job under a fresh generation.
        state.abandon(0, first, "crash".into());
        assert_eq!(state.leases[0], 0);
        let (job, second) = state.next_job().unwrap();
        assert_eq!(job, 0);
        assert!(second > first);
        assert_eq!(state.next_job(), None);
        // Neither the dead lease nor a lease never issued can abandon or
        // complete the live dispatch.
        state.abandon(0, first, "late crash report".into());
        assert!(!state.complete(0, 0, answer(0, 0)));
        assert_eq!(state.leases[0], second);
        assert_eq!(state.attempts[0], 1);
        assert!(state.complete(0, second, answer(0, second)));
        assert_eq!(state.remaining, 0);
    }

    #[test]
    fn late_results_after_lease_expiry_are_discarded_by_generation() {
        // The network-transport scenario: a lease expires (the worker is
        // slow, not dead), the job re-dispatches under a new generation,
        // and only the new generation's answer may land — whichever
        // order the two answers arrive in.
        let mut state = abort_state(1);
        let (job, expired) = state.next_job().unwrap();
        assert_eq!(job, 0);
        // Lease deadline passes: the supervisor abandons the dispatch.
        state.abandon(0, expired, "lease expired after 0.2s".into());
        let (job, fresh) = state.next_job().unwrap();
        assert_eq!(job, 0);
        assert_ne!(expired, fresh);
        // The slow worker's answer arrives late, under the dead lease:
        // provably discarded, not merged.
        assert!(!state.complete(0, expired, answer(0, expired)));
        assert_eq!(state.remaining, 1, "the job still awaits its live lease");
        assert!(state.results[0].is_none());
        // The re-dispatch answers under the live lease and wins.
        assert!(state.complete(0, fresh, answer(0, fresh)));
        assert_eq!(state.remaining, 0);
        assert_eq!(state.results[0].as_ref().unwrap().lease, fresh);
        // And a *second* copy of either answer (duplicate-result fault)
        // is still refused, and changes nothing.
        assert!(!state.complete(0, expired, answer(0, expired)));
        assert!(!state.complete(0, fresh, answer(0, fresh)));
        assert_eq!(state.remaining, 0);
        assert_eq!(state.results[0].as_ref().unwrap().lease, fresh);
    }

    #[test]
    fn external_failures_settle_the_epoch_once() {
        let mut state = abort_state(1);
        state.fail(EpochFailure { message: "no workers".into(), worker_unavailable: true });
        state.fail(EpochFailure { message: "second".into(), worker_unavailable: false });
        assert!(state.is_settled());
        assert_eq!(state.failed.as_ref().unwrap().message, "no workers");
        assert!(state.failed.as_ref().unwrap().worker_unavailable);
    }
}
