//! The supervision core of the out-of-process executor
//! ([`crate::WorkerExecutor`]): the per-epoch dispatch ledger its
//! connection threads share, and the counts of what supervision did.
//!
//! * [`EpochState`] is one epoch's dispatch ledger. Every dispatch holds
//!   a **lease**: a monotonically increasing generation number stamped
//!   into the job and echoed back in the result. A result is accepted
//!   only while its lease generation is still live; an expired or
//!   superseded lease's answer is *discarded*, never merged — which is
//!   what keeps results a pure function of `(config, K, E)` when a slow
//!   worker answers after its shard was re-dispatched elsewhere. A job
//!   that fails [`MAX_DISPATCH_ATTEMPTS`] times fails the epoch.
//! * [`SupervisionCounts`] reports the recoveries that cost time but no
//!   bits.
//!
//! Sockets, handshakes, heartbeats, reconnect acceptance and process
//! respawn live in [`crate::remote`]; the shards' checkpoints between
//! epochs live in the [`Session`](crate::executor::Session) every
//! executor shares.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::executor::OrchestratorError;
use crate::wire::ShardJobResult;

/// How many times one job may fail (crash, lease expiry, dropped
/// connection, protocol violation) before it fails the run with
/// [`OrchestratorError::Executor`].
pub const MAX_DISPATCH_ATTEMPTS: u8 = 3;

/// What supervision did during a run: every recovery that cost time but
/// no bits. Reported in `RunStats` and `summary.json`, never in
/// `metrics.json` — the counts describe this invocation's luck, not the
/// deterministic `(config, K, E)` result.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
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
    remaining: usize,
    results: Vec<Option<ShardJobResult>>,
    /// The typed error that failed the epoch, if one did.
    failed: Option<OrchestratorError>,
    /// Failed dispatches whose job was requeued.
    redispatches: u64,
    /// The next lease generation to hand out (0 is never issued). The
    /// session carries it across epochs, so a leftover answer from a
    /// folded epoch can never carry a live lease.
    next_lease: u64,
}

impl EpochState {
    /// Dispatch state over `jobs` jobs whose first lease generation is
    /// `first_lease` (at least 1).
    pub fn new(jobs: usize, first_lease: u64) -> Self {
        EpochState {
            queue: (0..jobs).collect(),
            leases: vec![0; jobs],
            attempts: vec![0; jobs],
            remaining: jobs,
            results: (0..jobs).map(|_| None).collect(),
            failed: None,
            redispatches: 0,
            next_lease: first_lease,
        }
    }

    /// Whether the epoch is over (every job answered or the epoch
    /// failed) — the dispatch loops' exit condition.
    pub fn is_settled(&self) -> bool {
        self.failed.is_some() || self.remaining == 0
    }

    /// Fail the whole epoch from outside the per-job budget accounting
    /// (the executor's worker-starvation deadline uses this). The first
    /// failure wins.
    pub fn fail(&mut self, error: OrchestratorError) {
        if self.failed.is_none() {
            self.failed = Some(error);
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
    /// means the job has not answered yet. An answer under an expired or
    /// abandoned lease returns `false` and is dropped: the job has been
    /// requeued, and this result must not race the recomputation.
    pub fn complete(&mut self, job: usize, lease: u64, result: ShardJobResult) -> bool {
        if !self.is_live(job, lease) {
            return false;
        }
        self.leases[job] = 0;
        self.remaining -= 1;
        self.results[job] = Some(result);
        true
    }

    /// The dispatch under `lease` failed (crash, hang past the lease
    /// deadline, dropped connection, protocol violation). The live lease
    /// dies and the job requeues, unless it ran out of attempts — then
    /// the epoch fails. A lease that is no longer live changes nothing.
    pub fn abandon(&mut self, job: usize, lease: u64, why: String) {
        if !self.is_live(job, lease) {
            return;
        }
        self.leases[job] = 0;
        self.attempts[job] += 1;
        if self.attempts[job] >= MAX_DISPATCH_ATTEMPTS {
            self.fail(OrchestratorError::Executor(format!(
                "shard job {job} failed {MAX_DISPATCH_ATTEMPTS} time(s); last error: {why}"
            )));
        } else {
            self.redispatches += 1;
            self.queue.push_front(job);
        }
    }

    /// The first lease generation the next epoch may issue.
    pub fn next_lease(&self) -> u64 {
        self.next_lease
    }

    /// Failed dispatches whose job was requeued this epoch.
    pub fn redispatches(&self) -> u64 {
        self.redispatches
    }

    /// Consume a settled epoch: every job's accepted answer, in job
    /// order, or the typed error that failed the epoch.
    pub fn into_results(self) -> Result<Vec<ShardJobResult>, OrchestratorError> {
        if let Some(error) = self.failed {
            return Err(error);
        }
        self.results
            .into_iter()
            .enumerate()
            .map(|(job, result)| {
                result.ok_or_else(|| {
                    OrchestratorError::Executor(format!("shard job {job} never completed"))
                })
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn abort_state(jobs: usize) -> EpochState {
        EpochState::new(jobs, 1)
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
        assert!(
            matches!(&state.failed, Some(OrchestratorError::Executor(msg)) if msg.contains("3 time(s)")),
            "the exhausted job fails the epoch as an executor error"
        );
        assert!(state.is_settled());
        // Two failures requeued the job; the third exhausted it.
        assert_eq!(state.redispatches, 2);
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
        state.fail(OrchestratorError::WorkerUnavailable("no workers".into()));
        state.fail(OrchestratorError::Executor("second".into()));
        assert!(state.is_settled());
        match state.into_results() {
            Err(OrchestratorError::WorkerUnavailable(msg)) => assert_eq!(msg, "no workers"),
            other => panic!("the first failure wins, got {:?}", other.err()),
        }
    }
}
