//! # llm4fp-orchestrator
//!
//! The scalable execution engine over `llm4fp`'s campaign framework:
//! where [`llm4fp::Campaign`] runs one budget sequentially, the
//! orchestrator decomposes it into independent shards, executes them
//! through a pluggable transport, and deterministically merges the
//! outputs.
//!
//! ```text
//!            CampaignConfig (budget N, seed S)
//!                          |
//!                  plan_shards(config, K)
//!                          |
//!      +------- K shards, seed S ^ mix(k) -------+
//!                          |
//!          ShardExecutor::begin(tasks) -> Session
//!          (every executor: each shard's checkpoint held between
//!           epochs, barrier deltas injected into it by hash)
//!                          |
//!          per epoch: ShardTransport::run_jobs(jobs), each job run_job
//!             /                                  \
//!      InProcessExecutor                   WorkerExecutor
//!      (run_indexed on a thread            (llm4fp-worker --connect
//!       pool; one cache for extcc)          daemons over TCP: leases,
//!                                           heartbeats, reconnect, respawn,
//!                                           crash redispatch)
//!                          |
//!          K ShardOutputs  --> JSON run dir (optional: the transport
//!                          |   writes each shard's file as it finishes)
//!                          |
//!         merge (shard order; pipeline time = sum over shards)
//!                          |
//!                   CampaignResult
//! ```
//!
//! **Determinism contract.** A sharded run is a pure function of
//! `(config, K, E)` where `E` is the feedback-exchange epoch count:
//! every shard derives its RNG streams from
//! `config.seed ^ mix(shard_index)` (mix(0) = 0, so shard 0 replays the
//! sequential stream), program inputs
//! are derived from the program's structural hash (so the result cache
//! that external-backend campaigns share in process is semantically
//! transparent), shards only communicate at
//! deterministic epoch barriers (merge in shard-index order, broadcast of
//! the merged deltas), and outputs merge in shard order.
//! Worker count, scheduling order, cache hits, **transport** (in-process
//! threads or out-of-process worker daemons, including worker crashes and
//! expired leases), and interruption/resume all leave the result
//! bit-identical. For `K = 1`, shard 0's streams are exactly the
//! sequential campaign's, so the orchestrated result matches
//! [`llm4fp::Campaign::run`] field for field — for any `E`, since a
//! single shard's exchange is a structural no-op.
//!
//! The trade-off at `K > 1` with `E = 1` (the default): each shard
//! maintains its own feedback set (Feedback-Based Mutation draws only
//! from inconsistencies its own shard found), which removes cross-program
//! sequencing and makes the decomposition embarrassingly parallel.
//! Setting `E > 1` buys the global feedback pool back at the cost of
//! `E - 1` barrier synchronizations: after each of the `E` budget
//! segments, per-shard deltas are merged (structurally deduplicated, in
//! shard-index order) and broadcast, so from epoch `e + 1` every shard
//! mutates programs drawn from the union of all shards' findings — the
//! paper's feedback loop at campaign scale rather than shard scale.
//!
//! Provided here:
//!
//! * [`Orchestrator`] — the builder API for one campaign: shard count,
//!   exchange epochs, persistent resumable run directories
//!   ([`Orchestrator::resume`], including mid-campaign restore from
//!   epoch-barrier checkpoints), telemetry, and the transport. It and
//!   [`Scheduler`] are two front ends of one campaign driver in
//!   [`orchestrate`], which owns the epoch-barrier loop, one campaign
//!   clock and the [`RunStats`];
//! * [`executor`] — the one shard [`Session`] every executor runs under,
//!   the transport seam ([`ShardExecutor`] / [`ShardTransport`]; a
//!   transport writes each finished shard's file into its task's run
//!   directory) and the in-process transport;
//! * [`remote`] — the out-of-process executor ([`WorkerExecutor`],
//!   configured by one [`SupervisionConfig`]): `llm4fp-worker --connect`
//!   daemons dial a TCP coordinator behind a versioned handshake and are
//!   supervised by deadline leases, idle heartbeats,
//!   reconnect-and-resume, respawn and crash-and-redispatch; a failed
//!   dispatch ends its connection one way (lease abandoned, connection
//!   closed, a silent self-spawned worker killed);
//! * [`supervisor`] — the supervision core: the lease-based dispatch
//!   ledger of one epoch ([`supervisor::EpochState`]), the dispatch
//!   budget ([`supervisor::MAX_DISPATCH_ATTEMPTS`]) and the
//!   [`SupervisionCounts`] reported in [`RunStats::supervision`];
//! * [`Scheduler`] — multi-campaign suites (all four Table 2 approaches)
//!   over one shared worker budget, with per-campaign exchange and
//!   per-campaign pipeline time;
//! * [`shard`] — the shard planning/merging primitives, the
//!   segment-capable [`ShardRunner`] and [`run_job`], the one function
//!   every executor runs a shard job through;
//! * [`pool`] — the indexed worker pool ([`pool::run_indexed`]) the
//!   in-process executor runs each epoch's jobs on;
//! * [`persist`] — the whole run-directory format: one JSON document per
//!   completed shard, one pool artifact per barrier (its merged delta)
//!   and per-barrier shard checkpoints that name pooled programs by
//!   hash, crash-safe (every artifact written by one writer through
//!   atomic temp+rename and read by one reader, failed writes counted,
//!   damaged files recomputed, one manifest schema gate);
//! * [`faults`] — deterministic fault injection ([`FaultPlan`]) for
//!   chaos-testing the supervisor: one [`WorkerFault`] list for slot 0's
//!   first worker and one for every worker (crashes, stalls, corrupt
//!   frames, dropped connections, duplicated answers,
//!   forgotten pool texts, refused handshakes), plus respawn failures and
//!   torn run-dir writes.
//!
//! **Failure model.** Supervision redispatches a failed job (crash,
//! expired lease, dropped connection) up to
//! [`supervisor::MAX_DISPATCH_ATTEMPTS`] times, at no cost in bits. A failure that redispatch cannot heal is one typed
//! error: a job that exhausts its budget fails the run with
//! [`OrchestratorError::Executor`], and a transport with no workers
//! fails it with [`OrchestratorError::WorkerUnavailable`]. Either way
//! the run directory keeps what it had persisted, and
//! [`Orchestrator::resume`] (or rerunning the same run directory under
//! any executor) continues from its latest complete barrier with
//! bit-identical results.
//!
//! ```no_run
//! use llm4fp::{ApproachKind, CampaignConfig};
//! use llm4fp_orchestrator::Orchestrator;
//!
//! let config = CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(1_000);
//! let outcome = Orchestrator::new(config).shards(8).run().expect("in-memory run");
//! println!("rate: {:.2}%", 100.0 * outcome.result.inconsistency_rate());
//! ```

#![deny(unsafe_code)]

pub mod executor;
pub mod faults;
pub mod orchestrate;
pub mod persist;
pub mod pool;
pub mod remote;
pub mod scheduler;
pub mod shard;
pub mod supervisor;
pub mod wire;

pub use executor::{
    InProcessExecutor, OrchestratorError, Session, SessionOutcome, ShardExecutor, ShardTask,
    ShardTransport,
};
pub use faults::{FaultPlan, PersistFault, WorkerFault};
pub use orchestrate::{
    default_workers, OrchestratedResult, Orchestrator, OrchestratorOptions, RunStats,
};
pub use persist::{PersistError, RunDir, RunManifest, MANIFEST_SCHEMA};
pub use remote::{SupervisionConfig, WorkerExecutor};
pub use scheduler::Scheduler;
pub use shard::{
    merge_shards, plan_epoch_segments, plan_shards, run_job, run_shard, shard_seed, ShardCtx,
    ShardFailureReport, ShardOutput, ShardRunner, ShardSpec,
};
pub use supervisor::SupervisionCounts;
pub use wire::{Hello, WireError, PROTOCOL_VERSION};
