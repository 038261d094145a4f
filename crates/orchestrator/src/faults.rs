//! Deterministic fault injection for chaos-testing the orchestrator.
//!
//! A [`FaultPlan`] is a serializable description of *where the next run
//! should break*: worker crashes at a numbered job, stalls, corrupt or
//! truncated wire frames, coordinator-side respawn failures, simulated
//! external-compiler spawn errors, and torn run-dir writes. The plan is
//! threaded through the whole stack —
//!
//! * the coordinator ([`crate::SupervisionConfig::faults`]) ships each
//!   spawn's effective worker faults to the daemon as JSON in the
//!   [`FAULT_PLAN_ENV`] environment variable, injects respawn failures
//!   into its own respawn path, and refuses handshakes on request;
//! * the `llm4fp-worker` daemon applies them via [`WorkerFaultHarness`];
//! * the persistence layer ([`crate::Orchestrator::persist_faults`])
//!   applies [`PersistFault`]s to run-dir writes.
//!
//! This replaces the earlier ad-hoc `LLM4FP_WORKER_CRASH_AT_JOB` /
//! `LLM4FP_WORKER_STALL_MS` environment variables with one declarative,
//! serializable failpoint vocabulary — the same plan file drives the unit
//! suite, the integration chaos tests, and the CI chaos matrix.
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

/// Environment variable carrying a JSON [`WorkerFaultSet`] to a worker
/// daemon (set by the coordinator per spawn; absent = no faults).
pub const FAULT_PLAN_ENV: &str = "LLM4FP_FAULT_PLAN";

/// Exit code a worker uses for an injected crash.
pub const EXIT_CRASH: i32 = 101;
/// Exit code a worker uses for a simulated external-compiler spawn error.
pub const EXIT_EXTCC_SPAWN: i32 = 102;
/// Exit code a worker uses after deliberately sabotaging an answer frame
/// (the stream is unusable afterwards, so the daemon does not linger).
pub const EXIT_SABOTAGED_ANSWER: i32 = 103;

/// One injected worker-daemon failure. Job ordinals count the jobs *this
/// daemon process* received, starting at 1 — a respawned daemon starts
/// counting afresh, which is what lets a `first_worker` fault heal on
/// redispatch.
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
    /// Sleep this long before every answer (a slow or hung worker, for
    /// the lease-expiry kill path).
    StallMs(u64),
    /// Answer the n-th job with garbage bytes instead of a frame (the
    /// coordinator sees a malformed-frame error, not a clean result).
    CorruptFrameAtJob(u64),
    /// Answer the n-th job with a frame header promising more bytes than
    /// are sent, then exit (the coordinator sees a mid-frame EOF).
    TruncateFrameAtJob(u64),
    /// Exit with [`EXIT_EXTCC_SPAWN`] upon receiving a job whose campaign
    /// uses an external backend (simulates the external toolchain
    /// disappearing out from under a worker).
    ExtccSpawnError,
}

/// One injected *network* failure on a worker connection. Worker-side
/// variants ship (like [`WorkerFault`]s) to the **first worker
/// connection's process** only, so a chaos run breaks in exactly one
/// deterministic place and the supervisor's recovery — lease expiry,
/// reconnect-and-resume, stale-result discard — must heal it without
/// changing a single result bit. `RefuseHandshake` is coordinator-side:
/// the acceptor refuses the first handshake it sees, and the refused
/// worker's dial-retry gets accepted afterwards.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum NetworkFault {
    /// Close the connection upon receiving the n-th job, *before*
    /// answering (a mid-epoch partition; the worker process survives and
    /// reconnects).
    DropConnAtJob(u64),
    /// Sleep this long before every answer frame (network latency; long
    /// enough delays expire the lease and exercise the stale-result
    /// discard).
    DelayFrameMs(u64),
    /// Answer the n-th job twice — two byte-identical result frames
    /// (a retransmission; the second copy must be discarded as stale).
    DuplicateResultAtJob(u64),
    /// Answer the n-th job with a frame header promising more bytes
    /// than are sent, then close the connection (a stream torn
    /// mid-frame; the coordinator sees a malformed frame / EOF).
    TruncateStreamAtJob(u64),
    /// Forget every pool text the connection carried upon receiving the
    /// n-th job, so a job that leaves texts out names hashes the worker
    /// cannot fill: the worker drops the connection, and the job
    /// redispatches on a fresh one that resends every text.
    ForgetPoolAtJob(u64),
    /// The coordinator refuses the first incoming handshake with a
    /// typed [`crate::wire::WireRequest::Refuse`]; the worker must
    /// retry its dial and be accepted on the next attempt.
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
/// them: `{"first_worker": [{"CrashAtJob": 1}]}` is a complete plan.
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
    /// fork/exec itself failed), exercising the respawn retry. The workers a session spawns at its start are never
    /// affected; a respawn follows a worker's exit or kill.
    pub respawn_failures: u32,
    /// Persistence-layer faults (see [`PersistFault`]).
    pub persist: Vec<PersistFault>,
    /// Network faults (see [`NetworkFault`]).
    /// Worker-side variants apply to the first worker process only;
    /// `RefuseHandshake` arms the coordinator's acceptor.
    pub network: Vec<NetworkFault>,
}

/// Missing fields deserialize as their defaults so partial JSON plan
/// files stay valid (the vendored serde shim has no `#[serde(default)]`).
impl Deserialize for FaultPlan {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_obj().ok_or_else(|| Error::msg("expected object for FaultPlan"))?;
        fn field<T: Deserialize + Default>(m: &serde::Map, name: &str) -> Result<T, Error> {
            match m.get(name) {
                None | Some(Value::Null) => Ok(T::default()),
                Some(v) => T::from_value(v),
            }
        }
        Ok(FaultPlan {
            first_worker: field(m, "first_worker")?,
            every_worker: field(m, "every_worker")?,
            respawn_failures: field(m, "respawn_failures")?,
            persist: field(m, "persist")?,
            network: field(m, "network")?,
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
            && self.network.is_empty()
    }

    /// The effective fault set for one worker spawn: `every_worker`
    /// always, plus `first_worker` on slot 0's first spawn.
    pub fn worker_faults(&self, first_spawn_of_slot0: bool) -> Vec<WorkerFault> {
        let mut faults = Vec::new();
        if first_spawn_of_slot0 {
            faults.extend(self.first_worker.iter().cloned());
        }
        faults.extend(self.every_worker.iter().cloned());
        faults
    }

    /// The worker-side network faults for one worker spawn: everything
    /// but [`NetworkFault::RefuseHandshake`] (which the coordinator's
    /// acceptor applies), on the first spawn only — one deterministic
    /// breakage site, like `first_worker`.
    pub fn network_faults(&self, first_spawn_of_slot0: bool) -> Vec<NetworkFault> {
        if !first_spawn_of_slot0 {
            return Vec::new();
        }
        self.network
            .iter()
            .filter(|fault| !matches!(fault, NetworkFault::RefuseHandshake))
            .cloned()
            .collect()
    }

    /// How many incoming handshakes the coordinator's acceptor should
    /// refuse (one per [`NetworkFault::RefuseHandshake`] in the plan).
    pub fn refuse_handshakes(&self) -> u32 {
        self.network.iter().filter(|f| matches!(f, NetworkFault::RefuseHandshake)).count() as u32
    }

    /// The [`FAULT_PLAN_ENV`] value for one worker spawn, or `None` when
    /// the spawn has no faults (the variable is then not set at all — the
    /// zero-cost path).
    pub fn worker_env(&self, first_spawn_of_slot0: bool) -> Option<String> {
        let set = WorkerFaultSet {
            worker: self.worker_faults(first_spawn_of_slot0),
            network: self.network_faults(first_spawn_of_slot0),
        };
        if set.worker.is_empty() && set.network.is_empty() {
            return None;
        }
        Some(serde_json::to_string(&set).expect("worker faults always serialize"))
    }
}

/// The per-spawn fault payload shipped to a worker via
/// [`FAULT_PLAN_ENV`]: the process faults plus the worker-side network
/// faults.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize)]
pub struct WorkerFaultSet {
    /// Process-level faults (crash, stall, frame sabotage).
    pub worker: Vec<WorkerFault>,
    /// Worker-side network faults (drop, delay, duplicate, truncate).
    pub network: Vec<NetworkFault>,
}

/// Missing fields deserialize as their defaults, like [`FaultPlan`].
impl Deserialize for WorkerFaultSet {
    fn from_value(v: &Value) -> Result<Self, Error> {
        let m = v.as_obj().ok_or_else(|| Error::msg("expected object for WorkerFaultSet"))?;
        fn field<T: Deserialize + Default>(m: &serde::Map, name: &str) -> Result<T, Error> {
            match m.get(name) {
                None | Some(Value::Null) => Ok(T::default()),
                Some(v) => T::from_value(v),
            }
        }
        Ok(WorkerFaultSet { worker: field(m, "worker")?, network: field(m, "network")? })
    }
}

/// What [`WorkerFaultHarness::on_job`] tells the daemon to do to the
/// current job. `exit_code` wins over everything; `drop_conn` wins over
/// answering; `stall` applies before computing; `delay` applies before
/// writing; `answer` replaces the result frame; `duplicate` and
/// `truncate_stream` sabotage how (many times) it is written.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct JobSabotage {
    /// Exit with this code instead of answering.
    pub exit_code: Option<i32>,
    /// Sleep this long before answering.
    pub stall: Option<Duration>,
    /// Sabotage the answer frame instead of writing it properly.
    pub answer: Option<FrameSabotage>,
    /// Close the connection without answering ([`NetworkFault::
    /// DropConnAtJob`]); the process survives and reconnects.
    pub drop_conn: bool,
    /// Sleep this long *after* computing, before writing the answer
    /// frame ([`NetworkFault::DelayFrameMs`]).
    pub delay: Option<Duration>,
    /// Write the answer frame twice ([`NetworkFault::DuplicateResultAtJob`]).
    pub duplicate: bool,
    /// Write half the answer frame, then close the connection
    /// ([`NetworkFault::TruncateStreamAtJob`]).
    pub truncate_stream: bool,
    /// Clear the connection's pool store before filling the job
    /// ([`NetworkFault::ForgetPoolAtJob`]).
    pub forget_pool: bool,
}

/// How a worker sabotages one answer frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameSabotage {
    /// Write garbage bytes that parse as no frame header.
    Corrupt,
    /// Write a valid header promising more payload than is sent.
    Truncate,
}

/// The worker daemon's side of the fault plan: parses [`FAULT_PLAN_ENV`]
/// once at startup and answers, per received job, what (if anything) to
/// sabotage. Counts jobs from 1 in arrival order — across reconnects,
/// since the process (not the connection) owns the count, which is what
/// makes "drop at job 1, then heal" deterministic.
#[derive(Debug, Default)]
pub struct WorkerFaultHarness {
    faults: Vec<WorkerFault>,
    network: Vec<NetworkFault>,
    handled: u64,
}

impl WorkerFaultHarness {
    /// Parse the harness from [`FAULT_PLAN_ENV`]. Absent or unparseable
    /// values yield the empty harness (a worker must never die because a
    /// fault plan was malformed — that would fault the *coordinator's*
    /// contract, not the planned failpoint).
    pub fn from_env() -> Self {
        let set: WorkerFaultSet = std::env::var(FAULT_PLAN_ENV)
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or_default();
        WorkerFaultHarness::with_network(set.worker, set.network)
    }

    /// A harness over an explicit fault list (tests).
    pub fn new(faults: Vec<WorkerFault>) -> Self {
        WorkerFaultHarness { faults, network: Vec::new(), handled: 0 }
    }

    /// A harness over worker and network fault lists (tests).
    pub fn with_network(faults: Vec<WorkerFault>, network: Vec<NetworkFault>) -> Self {
        WorkerFaultHarness { faults, network, handled: 0 }
    }

    /// Whether any faults are armed (the daemon's single branch per job).
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty() && self.network.is_empty()
    }

    /// Record the arrival of a job for `shard` (with `external` saying
    /// whether its campaign uses an external backend) and return the
    /// sabotage to apply.
    pub fn on_job(&mut self, shard: usize, external: bool) -> JobSabotage {
        self.handled += 1;
        let mut sabotage = JobSabotage::default();
        for fault in &self.faults {
            match *fault {
                WorkerFault::CrashAtJob(n) if n == self.handled => {
                    sabotage.exit_code = Some(EXIT_CRASH);
                }
                WorkerFault::CrashOnShard(index) if index == shard => {
                    sabotage.exit_code = Some(EXIT_CRASH);
                }
                WorkerFault::ExtccSpawnError if external => {
                    sabotage.exit_code = Some(EXIT_EXTCC_SPAWN);
                }
                WorkerFault::StallMs(ms) => {
                    sabotage.stall = Some(Duration::from_millis(ms));
                }
                WorkerFault::CorruptFrameAtJob(n) if n == self.handled => {
                    sabotage.answer = Some(FrameSabotage::Corrupt);
                }
                WorkerFault::TruncateFrameAtJob(n) if n == self.handled => {
                    sabotage.answer = Some(FrameSabotage::Truncate);
                }
                _ => {}
            }
        }
        for fault in &self.network {
            match *fault {
                NetworkFault::DropConnAtJob(n) if n == self.handled => {
                    sabotage.drop_conn = true;
                }
                NetworkFault::DelayFrameMs(ms) => {
                    sabotage.delay = Some(Duration::from_millis(ms));
                }
                NetworkFault::DuplicateResultAtJob(n) if n == self.handled => {
                    sabotage.duplicate = true;
                }
                NetworkFault::TruncateStreamAtJob(n) if n == self.handled => {
                    sabotage.truncate_stream = true;
                }
                NetworkFault::ForgetPoolAtJob(n) if n == self.handled => {
                    sabotage.forget_pool = true;
                }
                // Coordinator-side; never ships to a worker.
                NetworkFault::RefuseHandshake => {}
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
            first_worker: vec![WorkerFault::CrashAtJob(1), WorkerFault::StallMs(250)],
            every_worker: vec![WorkerFault::CrashOnShard(2), WorkerFault::ExtccSpawnError],
            respawn_failures: 3,
            persist: vec![PersistFault::TornWrite("checkpoint".into())],
            network: vec![
                NetworkFault::DropConnAtJob(1),
                NetworkFault::DelayFrameMs(40),
                NetworkFault::DuplicateResultAtJob(2),
                NetworkFault::TruncateStreamAtJob(3),
                NetworkFault::ForgetPoolAtJob(2),
                NetworkFault::RefuseHandshake,
            ],
        };
        let text = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&text).unwrap();
        assert_eq!(back, plan);
        // Partial plans parse with defaults for everything omitted.
        let partial: FaultPlan =
            serde_json::from_str(r#"{"first_worker": [{"CrashAtJob": 1}]}"#).unwrap();
        assert_eq!(partial.first_worker, vec![WorkerFault::CrashAtJob(1)]);
        assert!(partial.every_worker.is_empty());
        assert_eq!(partial.respawn_failures, 0);
        assert!(partial.persist.is_empty());
        assert!(partial.network.is_empty());
        let net_only: FaultPlan =
            serde_json::from_str(r#"{"network": [{"DropConnAtJob": 1}, "RefuseHandshake"]}"#)
                .unwrap();
        assert_eq!(
            net_only.network,
            vec![NetworkFault::DropConnAtJob(1), NetworkFault::RefuseHandshake]
        );
        assert!(!net_only.is_empty());
        assert_eq!(net_only.refuse_handshakes(), 1);
        let empty: FaultPlan = serde_json::from_str("{}").unwrap();
        assert!(empty.is_empty());
        assert!(FaultPlan::none().is_empty());
        assert!(!plan.is_empty());
    }

    #[test]
    fn worker_env_applies_first_worker_to_slot0_first_spawn_only() {
        let plan =
            FaultPlan { first_worker: vec![WorkerFault::CrashAtJob(1)], ..FaultPlan::default() };
        let first = plan.worker_env(true).expect("slot 0 first spawn is faulted");
        let parsed: WorkerFaultSet = serde_json::from_str(&first).unwrap();
        assert_eq!(parsed.worker, vec![WorkerFault::CrashAtJob(1)]);
        assert!(parsed.network.is_empty());
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
            network: vec![NetworkFault::DropConnAtJob(2), NetworkFault::RefuseHandshake],
            ..FaultPlan::default()
        };
        // RefuseHandshake stays coordinator-side; the drop ships to the
        // first worker only.
        assert_eq!(plan.network_faults(true), vec![NetworkFault::DropConnAtJob(2)]);
        assert!(plan.network_faults(false).is_empty());
        assert_eq!(plan.refuse_handshakes(), 1);
        let env = plan.worker_env(true).expect("network faults set the env");
        let parsed: WorkerFaultSet = serde_json::from_str(&env).unwrap();
        assert_eq!(parsed.network, vec![NetworkFault::DropConnAtJob(2)]);
        assert!(parsed.worker.is_empty());
        // A refuse-only plan ships nothing to workers at all.
        let refuse_only =
            FaultPlan { network: vec![NetworkFault::RefuseHandshake], ..FaultPlan::default() };
        assert_eq!(refuse_only.worker_env(true), None);
    }

    #[test]
    fn harness_applies_network_sabotage_and_legacy_payloads() {
        let mut h = WorkerFaultHarness::with_network(
            Vec::new(),
            vec![
                NetworkFault::DropConnAtJob(1),
                NetworkFault::DelayFrameMs(30),
                NetworkFault::DuplicateResultAtJob(2),
                NetworkFault::TruncateStreamAtJob(3),
                NetworkFault::ForgetPoolAtJob(2),
                NetworkFault::RefuseHandshake,
            ],
        );
        assert!(!h.is_empty());
        let first = h.on_job(0, false);
        assert!(first.drop_conn);
        assert_eq!(first.delay, Some(Duration::from_millis(30)));
        assert!(!first.duplicate && !first.truncate_stream);
        let second = h.on_job(0, false);
        assert!(!second.drop_conn && second.duplicate && second.forget_pool);
        assert_eq!(second.delay, Some(Duration::from_millis(30)));
        let third = h.on_job(0, false);
        assert!(third.truncate_stream && !third.duplicate && !third.forget_pool);
    }

    #[test]
    fn harness_fires_on_the_planned_job_and_shard() {
        let mut h = WorkerFaultHarness::new(vec![
            WorkerFault::CrashAtJob(2),
            WorkerFault::CrashOnShard(7),
            WorkerFault::StallMs(10),
        ]);
        let first = h.on_job(0, false);
        assert_eq!(first.exit_code, None);
        assert_eq!(first.stall, Some(Duration::from_millis(10)));
        // Job 2 crashes; shard 7 would too, on any job number.
        assert_eq!(h.on_job(0, false).exit_code, Some(EXIT_CRASH));
        assert_eq!(h.on_job(7, false).exit_code, Some(EXIT_CRASH));

        let mut ext = WorkerFaultHarness::new(vec![WorkerFault::ExtccSpawnError]);
        assert_eq!(ext.on_job(0, false).exit_code, None);
        assert_eq!(ext.on_job(0, true).exit_code, Some(EXIT_EXTCC_SPAWN));

        let mut frames = WorkerFaultHarness::new(vec![
            WorkerFault::CorruptFrameAtJob(1),
            WorkerFault::TruncateFrameAtJob(2),
        ]);
        assert_eq!(frames.on_job(0, false).answer, Some(FrameSabotage::Corrupt));
        assert_eq!(frames.on_job(0, false).answer, Some(FrameSabotage::Truncate));
        assert_eq!(frames.on_job(0, false).answer, None);
        assert!(WorkerFaultHarness::default().is_empty());
        assert!(!h.is_empty());
    }
}
