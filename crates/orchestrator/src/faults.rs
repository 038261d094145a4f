//! Deterministic fault injection for chaos-testing the orchestrator.
//!
//! A [`FaultPlan`] is a serializable description of *where the next run
//! should break*: worker crashes at a numbered job, stalls, corrupt
//! answer frames, dropped connections, duplicated answers,
//! forgotten pool texts, refused handshakes, coordinator-side respawn
//! failures and torn run-dir writes. The plan is threaded through the
//! whole stack —
//!
//! * the coordinator ([`crate::SupervisionConfig::faults`]) ships each
//!   spawn's worker faults to the daemon as a JSON list in the
//!   [`FAULT_PLAN_ENV`] environment variable, injects respawn failures
//!   into its own respawn path, and refuses handshakes on request;
//! * the `llm4fp-worker` daemon applies them via [`WorkerFaultHarness`];
//! * the persistence layer ([`crate::Orchestrator::persist_faults`])
//!   applies [`PersistFault`]s to run-dir writes.
//!
//! **Zero-cost when empty**, matching the telemetry discipline: every
//! injection site is a single branch on an empty plan (the coordinator
//! doesn't even set the env var), so production runs pay nothing.
//!
//! Because every fault is keyed deterministically (job ordinals, shard
//! indices, artifact names — never wall clock or randomness), a chaos run
//! is reproducible, and the supervisor's recovery keeps the results of a
//! run that completes bit-identical to the fault-free run — the property
//! the CI `chaos` job pins with `cmp`.

use std::time::Duration;

use serde::{Deserialize, Error, Serialize, Value};

/// Environment variable carrying a JSON list of [`WorkerFault`]s to a
/// worker daemon (set by the coordinator per spawn; absent = no faults).
pub const FAULT_PLAN_ENV: &str = "LLM4FP_FAULT_PLAN";

/// Exit code a worker uses for an injected crash.
pub const EXIT_CRASH: i32 = 101;

/// One injected worker failure. Job ordinals count the jobs *this daemon
/// process* received, starting at 1, across its reconnects — a respawned
/// daemon starts counting afresh, which is what lets a `first_worker`
/// fault heal on redispatch.
///
/// Every sabotaged answer ends its connection: the daemon closes it and
/// redials, and the coordinator redispatches the job.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum WorkerFault {
    /// Exit with [`EXIT_CRASH`] upon receiving the n-th job, before
    /// answering (a mid-epoch crash).
    CrashAtJob(u64),
    /// Exit with [`EXIT_CRASH`] whenever a job for this shard index
    /// arrives — a deterministically poisonous shard. Under
    /// `every_worker` this fault survives respawns and exhausts the
    /// dispatch budget, so the run fails with a typed error and its run
    /// directory resumes once the fault is gone.
    CrashOnShard(usize),
    /// Sleep this long before every answer (a slow or hung worker; past
    /// the lease it exercises the kill, the redispatch and the respawn).
    StallMs(u64),
    /// Answer the n-th job with garbage bytes instead of a frame (the
    /// coordinator sees a malformed-frame error, not a clean result).
    CorruptFrameAtJob(u64),
    /// Close the connection upon receiving the n-th job, *before*
    /// answering (a mid-epoch partition). The coordinator reads a stream
    /// that ends inside a frame the same way, so this also stands for a
    /// truncated answer.
    DropConnAtJob(u64),
    /// Answer the n-th job twice — two byte-identical result frames
    /// (a retransmission; the second copy must be discarded as stale).
    DuplicateResultAtJob(u64),
    /// Forget every pool text the connection carried upon receiving the
    /// n-th job, so a job that leaves texts out names hashes the worker
    /// cannot fill: the worker drops the connection, and the job
    /// redispatches on a fresh one that resends every text.
    ForgetPoolAtJob(u64),
    /// Coordinator-side: the acceptor refuses one incoming handshake with
    /// a typed [`crate::wire::WireRequest::Refuse`], and the refused
    /// worker's redial is accepted. Never ships to a worker.
    RefuseHandshake,
}

/// One injected persistence failure.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum PersistFault {
    /// The first run-dir artifact whose file name contains this substring
    /// is written torn: only the first half of its bytes land, bypassing
    /// the temp-file+rename protocol. Fires once per run. The write is
    /// counted as a persist error and the run continues — artifact writes
    /// are best-effort, so results stay bit-identical and the
    /// damaged file exercises the resume-side tolerance instead.
    TornWrite(String),
}

/// A deterministic, serializable chaos schedule for one run.
///
/// All fields default to empty/zero, and a JSON plan may omit any of
/// them: `{"first_worker": [{"CrashAtJob": 1}]}` is a complete plan. A
/// key or fault the plan does not know is an error, never ignored.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct FaultPlan {
    /// Faults applied to worker slot 0's *first* spawn only. Respawns
    /// never re-apply them, so recovery heals the fault — the shape every
    /// redispatch-equivalence test uses.
    pub first_worker: Vec<WorkerFault>,
    /// Faults applied to *every* worker spawn — persistent poison that
    /// survives respawns and exhausts the dispatch budget (the
    /// abort-then-resume test shape).
    pub every_worker: Vec<WorkerFault>,
    /// The first N *respawn* attempts fail coordinator-side (as if
    /// fork/exec itself failed), exercising the respawn retry. The
    /// workers a session spawns at its start are never affected; a
    /// respawn follows a worker's exit or kill.
    pub respawn_failures: u32,
    /// Persistence-layer faults (see [`PersistFault`]).
    pub persist: Vec<PersistFault>,
}

/// The JSON keys of a [`FaultPlan`].
const PLAN_KEYS: [&str; 4] = ["first_worker", "every_worker", "respawn_failures", "persist"];

/// Missing fields deserialize as their defaults so partial JSON plan
/// files stay valid (the vendored serde shim has no `#[serde(default)]`).
/// Unknown keys and faults are refused by name: the derived deserializers
/// would ignore a key and report an unknown fault without naming it.
impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_obj().ok_or_else(|| Error::msg("expected object for FaultPlan"))?;
        if let Some(key) = m.keys().find(|key| !PLAN_KEYS.contains(&key.as_str())) {
            return Err(Error::msg(format!(
                "unknown FaultPlan key `{key}` (expected one of {})",
                PLAN_KEYS.join(", ")
            )));
        }
        fn field<T: Deserialize + Default>(m: &serde::Map, name: &str) -> Result<T, Error> {
            match m.get(name) {
                None | Some(Value::Null) => Ok(T::default()),
                Some(v) => T::from_value(v),
            }
        }
        fn faults(m: &serde::Map, name: &str) -> Result<Vec<WorkerFault>, Error> {
            let Some(list) = m.get(name).and_then(Value::as_arr) else {
                return field(m, name);
            };
            list.iter()
                .map(|fault| {
                    WorkerFault::from_value(fault).map_err(|_| {
                        let text = serde_json::to_string(fault).unwrap_or_default();
                        Error::msg(format!("invalid {name} fault {text}"))
                    })
                })
                .collect()
        }
        Ok(FaultPlan {
            first_worker: faults(m, "first_worker")?,
            every_worker: faults(m, "every_worker")?,
            respawn_failures: field(m, "respawn_failures")?,
            persist: field(m, "persist")?,
        })
    }
}

impl FaultPlan {
    /// The empty plan (every injection site reduces to one branch).
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Whether the plan injects nothing at all.
    pub fn is_empty(&self) -> bool {
        self.first_worker.is_empty()
            && self.every_worker.is_empty()
            && self.respawn_failures == 0
            && self.persist.is_empty()
    }

    /// The faults one worker spawn applies: `every_worker` always, plus
    /// `first_worker` on slot 0's first spawn, less
    /// [`WorkerFault::RefuseHandshake`] (which the coordinator's acceptor
    /// applies).
    pub fn worker_faults(&self, first_spawn_of_slot0: bool) -> Vec<WorkerFault> {
        let first = if first_spawn_of_slot0 { &self.first_worker[..] } else { &[] };
        first
            .iter()
            .chain(&self.every_worker)
            .filter(|fault| **fault != WorkerFault::RefuseHandshake)
            .cloned()
            .collect()
    }

    /// How many incoming handshakes the coordinator's acceptor should
    /// refuse (one per [`WorkerFault::RefuseHandshake`] in the plan).
    pub fn refuse_handshakes(&self) -> u32 {
        let faults = self.first_worker.iter().chain(&self.every_worker);
        faults.filter(|fault| **fault == WorkerFault::RefuseHandshake).count() as u32
    }

    /// The [`FAULT_PLAN_ENV`] value for one worker spawn, or `None` when
    /// the spawn has no faults (the variable is then not set at all — the
    /// zero-cost path).
    pub fn worker_env(&self, first_spawn_of_slot0: bool) -> Option<String> {
        let faults = self.worker_faults(first_spawn_of_slot0);
        (!faults.is_empty())
            .then(|| serde_json::to_string(&faults).expect("worker faults always serialize"))
    }
}

/// What [`WorkerFaultHarness::on_job`] tells the daemon to do to the
/// current job. `crash` wins over everything; a dropped connection wins
/// over computing; `stall` and `forget_pool` apply before computing;
/// `answer` says how the result is written.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JobSabotage {
    /// Exit with [`EXIT_CRASH`] instead of answering.
    pub crash: bool,
    /// Sleep this long before computing the answer.
    pub stall: Option<Duration>,
    /// Sabotage the answer instead of writing it once.
    pub answer: Option<AnswerSabotage>,
    /// Clear the connection's pool store before filling the job.
    pub forget_pool: bool,
}

/// How a worker sabotages its answer to one job. Every variant but
/// `Duplicate` ends the connection, and the daemon redials.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnswerSabotage {
    /// Close the connection before computing, writing nothing.
    Drop,
    /// Write garbage bytes that parse as no frame header.
    Corrupt,
    /// Write the answer frame twice.
    Duplicate,
}

/// The worker daemon's side of the fault plan: parses [`FAULT_PLAN_ENV`]
/// once at startup and answers, per received job, what (if anything) to
/// sabotage. Counts jobs from 1 in arrival order — across reconnects,
/// since the process (not the connection) owns the count, which is what
/// makes "drop at job 1, then heal" deterministic.
#[derive(Debug, Default)]
pub struct WorkerFaultHarness {
    faults: Vec<WorkerFault>,
    handled: u64,
}

impl WorkerFaultHarness {
    /// Parse the harness from [`FAULT_PLAN_ENV`]. Absent or unparseable
    /// values yield the empty harness (a worker must never die because a
    /// fault plan was malformed — that would fault the *coordinator's*
    /// contract, not the planned failpoint).
    pub fn from_env() -> Self {
        std::env::var(FAULT_PLAN_ENV)
            .map(|text| WorkerFaultHarness::from_payload(&text))
            .unwrap_or_default()
    }

    /// The harness a [`FAULT_PLAN_ENV`] value arms: a JSON list of
    /// [`WorkerFault`]s. Any other payload (say, the retired
    /// `{"worker": …, "network": …}` object) arms nothing.
    pub fn from_payload(text: &str) -> Self {
        WorkerFaultHarness::new(serde_json::from_str(text).unwrap_or_default())
    }

    /// A harness over an explicit fault list.
    pub fn new(faults: Vec<WorkerFault>) -> Self {
        WorkerFaultHarness { faults, handled: 0 }
    }

    /// Whether any faults are armed (the daemon's single branch per job).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Record the arrival of a job for `shard` and return the sabotage to
    /// apply.
    pub fn on_job(&mut self, shard: usize) -> JobSabotage {
        self.handled += 1;
        let job = self.handled;
        let mut sabotage = JobSabotage::default();
        for fault in &self.faults {
            match *fault {
                WorkerFault::CrashAtJob(n) if n == job => sabotage.crash = true,
                WorkerFault::CrashOnShard(index) if index == shard => sabotage.crash = true,
                WorkerFault::StallMs(ms) => sabotage.stall = Some(Duration::from_millis(ms)),
                WorkerFault::CorruptFrameAtJob(n) if n == job => {
                    sabotage.answer = Some(AnswerSabotage::Corrupt);
                }
                WorkerFault::DropConnAtJob(n) if n == job => {
                    sabotage.answer = Some(AnswerSabotage::Drop);
                }
                WorkerFault::DuplicateResultAtJob(n) if n == job => {
                    sabotage.answer = Some(AnswerSabotage::Duplicate);
                }
                WorkerFault::ForgetPoolAtJob(n) if n == job => sabotage.forget_pool = true,
                _ => {}
            }
        }
        sabotage
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_round_trip_and_partial_json_defaults() {
        let plan = FaultPlan {
            first_worker: vec![
                WorkerFault::CrashAtJob(1),
                WorkerFault::StallMs(250),
                WorkerFault::CorruptFrameAtJob(1),
                WorkerFault::DropConnAtJob(1),
                WorkerFault::DuplicateResultAtJob(2),
                WorkerFault::ForgetPoolAtJob(2),
                WorkerFault::RefuseHandshake,
            ],
            every_worker: vec![WorkerFault::CrashOnShard(2)],
            respawn_failures: 3,
            persist: vec![PersistFault::TornWrite("checkpoint".into())],
        };
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
        // Partial plans parse with defaults for everything omitted.
        let partial: FaultPlan =
            serde_json::from_str(r#"{"first_worker": [{"CrashAtJob": 1}, "RefuseHandshake"]}"#)
                .unwrap();
        assert_eq!(
            partial.first_worker,
            vec![WorkerFault::CrashAtJob(1), WorkerFault::RefuseHandshake]
        );
        assert!(partial.every_worker.is_empty());
        assert_eq!(partial.respawn_failures, 0);
        assert!(partial.persist.is_empty());
        assert!(!partial.is_empty());
        assert_eq!(partial.refuse_handshakes(), 1);
        let empty: FaultPlan = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
        assert!(FaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn plans_with_unknown_keys_or_faults_are_refused_by_name() {
        // A retired key must not parse as an empty plan, and a retired
        // fault must not parse at all: either would run the plan
        // fault-free.
        for (plan, named) in [
            (r#"{"network": [{"DropConnAtJob": 1}]}"#, "`network`"),
            (r#"{"first_worker": [{"DelayFrameMs": 450}]}"#, "DelayFrameMs"),
            (r#"{"first_worker": [{"TruncateStreamAtJob": 1}]}"#, "TruncateStreamAtJob"),
            (r#"{"first_worker": [{"TruncateFrameAtJob": 1}]}"#, "TruncateFrameAtJob"),
            (r#"{"every_worker": ["ExtccSpawnError"]}"#, "ExtccSpawnError"),
        ] {
            let err = serde_json::from_str::<FaultPlan>(plan).expect_err(plan).to_string();
            assert!(err.contains(named), "{plan}: {err}");
        }
    }

    #[test]
    fn worker_env_applies_first_worker_to_slot0_first_spawn_only() {
        let plan =
            FaultPlan { first_worker: vec![WorkerFault::CrashAtJob(1)], ..FaultPlan::default() };
        let first = plan.worker_env(true).expect("slot 0 first spawn is faulted");
        let parsed: Vec<WorkerFault> = serde_json::from_str(&first).unwrap();
        assert_eq!(parsed, vec![WorkerFault::CrashAtJob(1)]);
        // Respawns (and other slots) see no faults at all — the variable
        // is not even set, so the worker's branch stays zero-cost.
        assert_eq!(plan.worker_env(false), None);
        let poison =
            FaultPlan { every_worker: vec![WorkerFault::CrashOnShard(1)], ..FaultPlan::default() };
        assert!(poison.worker_env(false).is_some());
    }

    #[test]
    fn network_faults_ship_to_the_first_worker_without_refuse() {
        let plan = FaultPlan {
            first_worker: vec![WorkerFault::DropConnAtJob(2), WorkerFault::RefuseHandshake],
            ..FaultPlan::default()
        };
        // RefuseHandshake stays with the coordinator's acceptor; the drop
        // ships to the first worker only.
        assert_eq!(plan.worker_faults(true), vec![WorkerFault::DropConnAtJob(2)]);
        assert!(plan.worker_faults(false).is_empty());
        assert_eq!(plan.refuse_handshakes(), 1);
        let env = plan.worker_env(true).expect("a drop sets the env");
        let parsed: Vec<WorkerFault> = serde_json::from_str(&env).unwrap();
        assert_eq!(parsed, vec![WorkerFault::DropConnAtJob(2)]);
        // A refuse-only plan ships nothing to workers at all.
        let refuse_only =
            FaultPlan { first_worker: vec![WorkerFault::RefuseHandshake], ..FaultPlan::default() };
        assert_eq!(refuse_only.worker_env(true), None);
        assert_eq!(refuse_only.refuse_handshakes(), 1);
    }

    #[test]
    fn harness_applies_network_sabotage_and_legacy_payloads() {
        let env = FaultPlan {
            first_worker: vec![
                WorkerFault::DropConnAtJob(1),
                WorkerFault::StallMs(30),
                WorkerFault::DuplicateResultAtJob(2),
                WorkerFault::ForgetPoolAtJob(2),
                WorkerFault::RefuseHandshake,
            ],
            ..FaultPlan::default()
        }
        .worker_env(true)
        .unwrap();
        let mut h = WorkerFaultHarness::from_payload(&env);
        assert!(!h.is_empty());
        let first = h.on_job(0);
        assert_eq!(first.answer, Some(AnswerSabotage::Drop));
        assert_eq!(first.stall, Some(Duration::from_millis(30)));
        assert!(!first.crash && !first.forget_pool);
        let second = h.on_job(0);
        assert_eq!(second.answer, Some(AnswerSabotage::Duplicate));
        assert!(second.forget_pool);
        assert_eq!(second.stall, Some(Duration::from_millis(30)));
        let third = h.on_job(0);
        assert_eq!(third.answer, None);
        assert!(!third.forget_pool);
        // The retired `{worker, network}` payload, and garbage, arm nothing.
        for legacy in [r#"{"worker": [], "network": [{"DropConnAtJob": 1}]}"#, "not json"] {
            assert!(WorkerFaultHarness::from_payload(legacy).is_empty(), "{legacy}");
        }
    }

    #[test]
    fn harness_fires_on_the_planned_job_and_shard() {
        let mut h = WorkerFaultHarness::new(vec![
            WorkerFault::CrashAtJob(2),
            WorkerFault::CrashOnShard(7),
            WorkerFault::StallMs(10),
        ]);
        let first = h.on_job(0);
        assert!(!first.crash);
        assert_eq!(first.stall, Some(Duration::from_millis(10)));
        // Job 2 crashes; shard 7 would too, on any job number.
        assert!(h.on_job(0).crash);
        assert!(h.on_job(7).crash);

        let mut answers = WorkerFaultHarness::new(vec![
            WorkerFault::CorruptFrameAtJob(1),
            WorkerFault::DropConnAtJob(2),
            WorkerFault::DuplicateResultAtJob(3),
            WorkerFault::ForgetPoolAtJob(3),
        ]);
        assert_eq!(answers.on_job(0).answer, Some(AnswerSabotage::Corrupt));
        assert_eq!(answers.on_job(0).answer, Some(AnswerSabotage::Drop));
        let third = answers.on_job(0);
        assert_eq!(third.answer, Some(AnswerSabotage::Duplicate));
        assert!(third.forget_pool);
        assert_eq!(answers.on_job(0), JobSabotage::default());
        assert!(WorkerFaultHarness::default().is_empty());
        assert!(!h.is_empty());
    }
}
