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
//!      |                   |                      |
//!      |        ShardExecutor::begin(tasks, sink) |
//!      |                   |                      |
//!      |    InProcessExecutor          WorkerExecutor  |
//!      |    (thread pool +             (llm4fp-worker --connect
//!      |     shared cache)              daemons over TCP: leases,
//!      |                                heartbeats, reconnect, respawn,
//!      |                                crash redispatch)
//!      |                   |                      |
//!   ShardOutput       ShardOutput            ShardOutput   --> JSONL run dir
//!      +---------------- merge (shard order) ----------------+  (optional)
//!                          |
//!                   CampaignResult
//! ```
//!
//! **Determinism contract.** A sharded run is a pure function of
//! `(config, K, E)` where `E` is the feedback-exchange epoch count:
//! every shard derives its RNG streams from
//! `config.seed ^ mix(shard_index)` (mix(0) = 0, so shard 0 replays the
//! sequential stream), program inputs
//! are derived from the program's structural hash (so the shared result
//! cache is semantically transparent), shards only communicate at
//! deterministic epoch barriers (merge in shard-index order, broadcast of
//! the merged deltas), and outputs merge in shard order.
//! Worker count, scheduling order, caching, **transport** (in-process
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
//!   exchange epochs, caching, persistent resumable run directories
//!   ([`Orchestrator::resume`], including mid-campaign restore from
//!   epoch-barrier checkpoints), telemetry, and the transport. It and
//!   [`Scheduler`] are two front ends of one campaign driver in
//!   [`orchestrate`], which owns the epoch-barrier loop, the progress
//!   sink (which writes each completed shard's file) and the
//!   [`RunStats`];
//! * [`executor`] — the transport seam: [`ShardExecutor`] /
//!   [`ShardSession`] and the in-process implementation;
//! * [`remote`] — the out-of-process executor ([`WorkerExecutor`],
//!   configured by one [`SupervisionConfig`]): `llm4fp-worker --connect`
//!   daemons dial a TCP coordinator behind a versioned handshake and are
//!   supervised by deadline leases, idle heartbeats,
//!   reconnect-and-resume, respawn with backoff and
//!   crash-and-redispatch;
//! * [`supervisor`] — the supervision core: lease-based dispatch ledgers
//!   ([`supervisor::EpochState`]), the session half the executor folds
//!   epochs through ([`supervisor::SessionCore`]) and the
//!   [`SupervisionCounts`] reported in [`RunStats::supervision`];
//! * [`Scheduler`] — multi-campaign suites (all four Table 2 approaches)
//!   over one shared worker budget, with per-campaign exchange, cache per
//!   test context and per-campaign time;
//! * [`shard`] — the shard planning/merging primitives and the
//!   segment-capable [`ShardRunner`];
//! * [`pool`] — the indexed worker pool ([`pool::run_indexed`]) the
//!   in-process executor runs each epoch's segments on;
//! * [`persist`] — the JSONL run-directory format: one summary line per
//!   completed shard and per-barrier shard checkpoints (each holding the
//!   exchange pool), crash-safe (every artifact written once through
//!   atomic temp+rename, failed writes counted, damaged files recomputed,
//!   schema-versioned manifests);
//! * [`faults`] — deterministic fault injection ([`FaultPlan`]) for
//!   chaos-testing the supervisor: worker crashes/stalls/frame sabotage,
//!   respawn failures, torn run-dir writes, and network faults (dropped
//!   connections, delayed/duplicated/torn result frames, refused
//!   handshakes).
//!
//! **Failure model.** Supervision redispatches a failed job (crash,
//! expired lease, dropped connection) up to its dispatch budget, at no
//! cost in bits. A failure that redispatch cannot heal is one typed
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
    InProcessExecutor, NullSink, OrchestratorError, ProgressSink, SessionOutcome, ShardExecutor,
    ShardSession, ShardTask,
};
pub use faults::{
    FaultPlan, NetworkFault, PersistFault, WorkerFault, WorkerFaultSet, MAX_BACKOFF_DOUBLINGS,
};
pub use orchestrate::{
    default_workers, OrchestratedResult, Orchestrator, OrchestratorOptions, RunStats,
};
pub use persist::{Artifact, PersistError, RunDir, RunManifest, MANIFEST_SCHEMA};
pub use remote::{SupervisionConfig, WorkerExecutor};
pub use scheduler::Scheduler;
pub use shard::{
    merge_shards, plan_epoch_segments, plan_shards, run_shard, shard_seed, ShardCtx,
    ShardFailureReport, ShardOutput, ShardRunner, ShardSpec,
};
pub use supervisor::SupervisionCounts;
pub use wire::{Hello, WireError, PROTOCOL_VERSION};
