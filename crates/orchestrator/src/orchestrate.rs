//! The campaign orchestrator: sharded execution behind a pluggable
//! [`ShardExecutor`] transport, with optional epoch-based cross-shard
//! feedback exchange, result caching and persistent, resumable run
//! directories.
//!
//! ## One driver, two front ends
//!
//! Every campaign runs through one crate-private driver. It takes N
//! campaigns, each with its config, shard plan, telemetry hub and an
//! optional run directory, and flattens their shards into one task list
//! for one executor session. It owns everything the two front ends used
//! to duplicate: one result cache per test context, barrier restore and
//! shard reuse from a run directory, the epoch-barrier loop, the
//! [`ProgressSink`] and the [`RunStats`] of each campaign.
//!
//! * [`Orchestrator`] runs one campaign and writes the run-directory
//!   artifacts. It merges with, and reports, the run's wall time:
//!
//! ```ignore
//! let outcome = Orchestrator::new(config)
//!     .shards(4)
//!     .epochs(2)
//!     .executor(Arc::new(WorkerExecutor::new(SupervisionConfig {
//!         worker_procs: 4,
//!         ..SupervisionConfig::default()
//!     })))
//!     .run()?;
//! ```
//!
//! * [`Scheduler`](crate::Scheduler) runs a suite of campaigns in memory.
//!   Each campaign merges with its own pipeline time and reports its own
//!   wall time, from its first progress tick to its last shard
//!   completion.
//!
//! Only the mechanics of running a segment differ between
//! [`InProcessExecutor`] (the default) and out-of-process executors.
//!
//! A failure that redispatch cannot heal fails the run with one typed
//! error: [`OrchestratorError::Executor`] when a job exhausts its
//! dispatch budget, [`OrchestratorError::WorkerUnavailable`] when the
//! transport has no workers. Either way the run directory keeps every
//! shard file and barrier checkpoint written so far, so rerunning the
//! same run directory under any executor resumes from its latest complete
//! barrier with bit-identical results.
//!
//! ## Cross-shard feedback exchange
//!
//! A plain sharded run keeps each shard's successful set private, so at
//! `K` shards Feedback-Based Mutation draws from ~1/K of the campaign's
//! findings. With `epochs = E > 1` every shard runs its budget in `E`
//! segments; after each segment the shards synchronize at a deterministic
//! barrier where their newly found successful sources (the *deltas*) are
//! merged in shard-index order — structurally deduplicated with the same
//! hashing as the per-shard sets — and broadcast back. A shard's set
//! already holds every earlier broadcast, so the epoch's merged deltas are
//! all it lacks, and every shard's feedback mutation draws from the union
//! in the next epoch. A suite's barriers are shared, but a delta only ever
//! merges with its own campaign's.
//!
//! The determinism contract extends to `(config, K, E)`: barrier order is
//! fixed by shard index (never completion order), so results stay
//! bit-identical across worker counts *and transports*, and `E = 1` runs
//! the exact no-exchange code path. Persisted multi-epoch runs record
//! every shard's paused checkpoint (pool included) at each barrier, so a
//! killed campaign resumes mid-run from the latest complete barrier and
//! still reproduces the uninterrupted result bit for bit.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use llm4fp::{BackendSpec, CampaignConfig, CampaignResult, RunnerCheckpoint, SuccessfulSet};
use llm4fp_compiler::{CompilerId, OptLevel};
use llm4fp_difftest::{CacheStats, ResultCache};
use llm4fp_fpir::Precision;
use llm4fp_telemetry::{keys, TelemetryHub, TelemetrySpec, TelemetrySummary};

use crate::executor::{
    InProcessExecutor, OrchestratorError, ProgressSink, SessionOutcome, ShardExecutor, ShardTask,
};
use crate::faults::PersistFault;
use crate::persist::{RunDir, RunManifest};
use crate::shard::{
    merge_shards, plan_epoch_segments, plan_shards, ShardFailureReport, ShardOutput, ShardSpec,
};
use crate::supervisor::SupervisionCounts;

/// How an orchestrated run executes.
#[derive(Debug, Clone)]
pub struct OrchestratorOptions {
    /// Worker threads for shard execution; each shard runs its difftest
    /// matrix on the worker thread that runs the shard, so this is the
    /// run's only compute parallelism (`config.threads` is inert) and the
    /// bound on how many external compilers and test binaries run at once.
    /// Defaults to the machine's available parallelism. `0` is rejected
    /// with [`OrchestratorError::InvalidWorkers`] at run time.
    pub workers: usize,
    /// Share a differential-testing result cache across shards (only
    /// consulted by executors whose
    /// [`shares_cache`](ShardExecutor::shares_cache) is true).
    pub cache: bool,
    /// Feedback-exchange epochs. `1` (the default) disables exchange and
    /// reproduces the independent-shard output exactly; `E > 1` slices
    /// every shard's budget into `E` segments with a merge-and-broadcast
    /// barrier between consecutive segments.
    pub epochs: usize,
    /// Persist the run (config, epoch barriers, completed shard outputs,
    /// merged result) into this directory, and resume from whatever
    /// complete state is already present.
    pub run_dir: Option<PathBuf>,
    /// Telemetry collection for this run (off by default — the disabled
    /// path costs one branch per call site). With `metrics` on, persisted
    /// runs also write the deterministic `metrics.json` flight recorder;
    /// with `trace` on, a Chrome `trace_event`-compatible `trace.jsonl`.
    /// Collection is pure observation: results are bit-identical with
    /// telemetry on or off.
    pub telemetry: TelemetrySpec,
    /// Deterministic persistence faults for chaos testing (see
    /// [`PersistFault`]); empty outside tests.
    pub persist_faults: Vec<PersistFault>,
}

impl Default for OrchestratorOptions {
    fn default() -> Self {
        OrchestratorOptions {
            workers: default_workers(),
            cache: true,
            epochs: 1,
            run_dir: None,
            telemetry: TelemetrySpec::OFF,
            persist_faults: Vec::new(),
        }
    }
}

/// The machine's available parallelism (1 when unknown).
pub fn default_workers() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// Execution statistics of one orchestrated run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunStats {
    /// Number of shards in the plan.
    pub shards: usize,
    /// Worker threads used.
    pub workers: usize,
    /// Feedback-exchange epochs the plan was sliced into.
    pub epochs: usize,
    /// Shards loaded from a persisted run directory instead of computed.
    pub shards_reused: usize,
    /// Shards computed this run.
    pub shards_computed: usize,
    /// Epochs skipped by restoring persisted barrier checkpoints instead
    /// of recomputing them (multi-epoch resume).
    pub epochs_restored: usize,
    /// Result-cache statistics (`None` when caching was off, or when the
    /// executor runs its shards out of process and never consults the
    /// coordinator's cache).
    pub cache: Option<CacheStats>,
    /// Largest VM register file any shard's reused execution scratch
    /// prepared during this run — the sealed register-file size. `None`
    /// when no shard reported one (all shards reused from a
    /// pre-optimizer run dir); telemetry only, never part of the
    /// determinism contract (resumed shards count only their recomputed
    /// segment).
    pub peak_regs: Option<usize>,
    /// Wall-clock duration of the orchestrated run.
    pub wall_time: Duration,
    /// Sum of the computed shards' pipeline times (the work the pool
    /// actually performed; `wall_time` approaches this divided by the
    /// effective worker count).
    pub shard_pipeline_time: Duration,
    /// Telemetry roll-up (`None` when telemetry was off). Counter-derived
    /// fields are deterministic for fully computed runs; the time fields
    /// describe only work computed in *this* invocation.
    pub telemetry: Option<TelemetrySummary>,
    /// Always empty: a shard that exhausts its dispatch budget fails the
    /// run with [`OrchestratorError::Executor`] instead of reaching the
    /// merge. Kept so existing readers of `RunStats` and `summary.json`
    /// files that carry the key keep compiling and loading.
    pub failures: Vec<ShardFailureReport>,
    /// Best-effort persistence writes this run failed or tore (shard
    /// files, barrier checkpoints). `0` on healthy runs; a failed write
    /// only costs recompute-on-resume, never results.
    pub persist_errors: u64,
    /// What the out-of-process executor's supervision did: stale results
    /// discarded, redispatches, respawns. All zero in process. It
    /// describes this invocation's luck and never reaches `metrics.json`.
    pub supervision: SupervisionCounts,
}

impl RunStats {
    /// One-line human-readable summary, including the result-cache hit
    /// rate (the JSONL run directory persists the same data as
    /// `summary.json`).
    pub fn summary_line(&self) -> String {
        let cache = match &self.cache {
            Some(c) => format!(
                "cache {}/{} hits ({:.1}%)",
                c.hits,
                c.hits + c.misses,
                100.0 * c.hit_rate()
            ),
            None => "cache off".to_string(),
        };
        let peak = match self.peak_regs {
            Some(regs) => format!(", peak register file {regs}"),
            None => String::new(),
        };
        let telemetry = match &self.telemetry {
            Some(t) => format!(
                ", telemetry: {} keys, {} fallback(s), {:.2}s seal / {:.2}s exec",
                t.counter_keys,
                t.interpreter_fallbacks,
                t.seal_time.as_secs_f64(),
                t.exec_time.as_secs_f64()
            ),
            None => String::new(),
        };
        let health = {
            let mut parts = String::new();
            if self.persist_errors > 0 {
                parts.push_str(&format!(", {} persist error(s)", self.persist_errors));
            }
            let SupervisionCounts { stale_results, redispatches, respawns } = self.supervision;
            if stale_results + redispatches + respawns > 0 {
                parts.push_str(&format!(
                    ", {redispatches} redispatch(es), {respawns} respawn(s), \
                     {stale_results} stale result(s)"
                ));
            }
            parts
        };
        format!(
            "{} shard(s) x {} epoch(s) on {} worker(s), {} reused, \
             {:.2}s wall ({:.2}s shard time), {}{}{}{}",
            self.shards,
            self.epochs,
            self.workers,
            self.shards_reused,
            self.wall_time.as_secs_f64(),
            self.shard_pipeline_time.as_secs_f64(),
            cache,
            peak,
            telemetry,
            health
        )
    }
}

/// A merged campaign result plus how it was produced.
#[derive(Debug, Clone)]
pub struct OrchestratedResult {
    pub result: CampaignResult,
    pub stats: RunStats,
}

/// The orchestrated-run builder. Configure a campaign's decomposition and
/// transport, then [`run`](Orchestrator::run) it:
///
/// ```ignore
/// let outcome = Orchestrator::new(config).shards(4).epochs(2).run()?;
/// ```
///
/// See the crate docs for the determinism contract: results are a pure
/// function of `(config, shard count, epoch count)` — never of the
/// worker count, the transport, or crash/redispatch schedules.
#[derive(Debug, Clone)]
pub struct Orchestrator {
    config: CampaignConfig,
    shards: usize,
    options: OrchestratorOptions,
    executor: Option<Arc<dyn ShardExecutor>>,
}

impl Orchestrator {
    /// A builder for one campaign with default options: one shard, one
    /// epoch, default worker pool, caching on, in-process execution.
    pub fn new(config: CampaignConfig) -> Self {
        Orchestrator { config, shards: 1, options: OrchestratorOptions::default(), executor: None }
    }

    /// Decompose the campaign into `shards` shards (clamped to the
    /// program budget at planning time).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Slice every shard's budget into `epochs` feedback-exchange epochs.
    pub fn epochs(mut self, epochs: usize) -> Self {
        self.options.epochs = epochs;
        self
    }

    /// Worker threads for the default in-process executor (`0` errors at
    /// run time with [`OrchestratorError::InvalidWorkers`]).
    pub fn workers(mut self, workers: usize) -> Self {
        self.options.workers = workers;
        self
    }

    /// Toggle the shared differential-testing result cache.
    pub fn cache(mut self, cache: bool) -> Self {
        self.options.cache = cache;
        self
    }

    /// Persist into (and resume from) this run directory.
    pub fn run_dir(mut self, root: impl Into<PathBuf>) -> Self {
        self.options.run_dir = Some(root.into());
        self
    }

    /// Telemetry collection for this run.
    pub fn telemetry(mut self, spec: TelemetrySpec) -> Self {
        self.options.telemetry = spec;
        self
    }

    /// Arm deterministic persistence faults for chaos testing (see
    /// [`PersistFault`] — worker faults are armed on the executor via
    /// [`crate::SupervisionConfig::faults`]).
    pub fn persist_faults(mut self, faults: Vec<PersistFault>) -> Self {
        self.options.persist_faults = faults;
        self
    }

    /// Replace the whole options bag at once (existing call sites that
    /// assemble an [`OrchestratorOptions`] keep working unchanged).
    pub fn options(mut self, options: OrchestratorOptions) -> Self {
        self.options = options;
        self
    }

    /// Execute shard segments through this transport instead of the
    /// default [`InProcessExecutor`]. The merged result is bit-identical
    /// for any executor — only wall-clock behavior and cache statistics
    /// differ.
    pub fn executor(mut self, executor: Arc<dyn ShardExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Run the configured campaign through the campaign driver, then
    /// persist its artifacts (if a run directory is set).
    pub fn run(self) -> Result<OrchestratedResult, OrchestratorError> {
        let Orchestrator { config, shards, options, executor } = self;
        let start = Instant::now();
        let specs = plan_shards(&config, shards);
        let run_dir = match &options.run_dir {
            Some(root) => Some(
                RunDir::open(
                    root,
                    &RunManifest::new(config.clone(), specs.len(), options.epochs.max(1)),
                )?
                .with_persist_faults(&options.persist_faults),
            ),
            None => None,
        };
        let hub = TelemetryHub::new(options.telemetry);
        let campaign =
            CampaignRun { config: &config, specs: &specs, hub: &hub, run_dir: run_dir.as_ref() };
        let outcome = drive(&[campaign], &options, executor, start, Clock::Run)?.remove(0);
        let stats = &outcome.stats;
        if let Some(dir) = &run_dir {
            dir.write_result(&outcome.result)?;
            dir.write_summary(stats)?;
            // The flight recorder is only written for fully computed runs:
            // reused shards and restored epochs record nothing, so a
            // partial recompute would under-count relative to the
            // determinism contract's byte-identical promise.
            let fully_computed = stats.shards_reused == 0 && stats.epochs_restored == 0;
            if hub.enabled() && fully_computed {
                dir.write_metrics(&hub.metrics())?;
            }
            if hub.spec().trace_enabled() {
                dir.write_trace(&hub.trace_events())?;
            }
        }
        Ok(outcome)
    }

    /// Resume a persisted run from its manifest alone: complete shards
    /// are loaded, and an interrupted multi-epoch run restarts every
    /// shard from the latest persisted exchange barrier. The merged
    /// result is (re)written and bit-identical to an uninterrupted run of
    /// the same manifest.
    pub fn resume(root: impl Into<PathBuf>) -> Result<OrchestratedResult, OrchestratorError> {
        let root = root.into();
        let manifest = RunDir::read_manifest(&root)?;
        Orchestrator::new(manifest.config.clone())
            .shards(manifest.shards)
            .epochs(manifest.epochs)
            .run_dir(root)
            .run()
    }
}

/// One campaign handed to [`drive`]. Only [`Orchestrator`] sets a run
/// directory; a suite runs in memory.
pub(crate) struct CampaignRun<'a> {
    pub(crate) config: &'a CampaignConfig,
    pub(crate) specs: &'a [ShardSpec],
    /// The campaign's own hub: lanes are its shard indices, and its
    /// orchestrator lane sits one past them, so a suite's campaigns never
    /// bleed into each other's metrics.
    pub(crate) hub: &'a TelemetryHub,
    pub(crate) run_dir: Option<&'a RunDir>,
}

/// How [`drive`] reports a campaign's time.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Clock {
    /// Merge with, and report, the wall time since the run started.
    Run,
    /// Merge with the campaign's own pipeline time, and report its wall
    /// time from its first progress tick to its last shard completion.
    /// A suite-wide clock would charge every campaign for every other
    /// campaign's work and flatten Table 2's time-cost comparison.
    PerCampaign,
}

/// The campaign driver behind both front ends: run `campaigns` as one
/// flattened shard task list through one executor session, and return
/// each campaign's merged result and [`RunStats`] in input order.
pub(crate) fn drive(
    campaigns: &[CampaignRun],
    options: &OrchestratorOptions,
    executor: Option<Arc<dyn ShardExecutor>>,
    start: Instant,
    clock: Clock,
) -> Result<Vec<OrchestratedResult>, OrchestratorError> {
    if options.workers == 0 {
        return Err(OrchestratorError::InvalidWorkers);
    }
    let executor: Arc<dyn ShardExecutor> =
        executor.unwrap_or_else(|| Arc::new(InProcessExecutor::new(options.workers)));
    let _run: Vec<_> =
        campaigns.iter().map(|c| c.hub.lane(c.specs.len()).span(keys::SPAN_RUN)).collect();
    execute(campaigns, options, executor.as_ref(), start, clock)
}

/// What one campaign brings back from its run directory.
struct Resume {
    /// Complete shard outputs loaded from disk, in plan order; `None`
    /// marks a shard to compute.
    loaded: Vec<Option<ShardOutput>>,
    /// The exchange barrier every shard restarts from.
    barrier: Option<usize>,
    /// Every shard's checkpoint at `barrier`, in plan order (empty without
    /// a barrier); each moves into its shard's task.
    checkpoints: Vec<RunnerCheckpoint>,
}

impl Resume {
    fn of(campaign: &CampaignRun, epochs: usize) -> Self {
        let mut resume = Resume {
            loaded: campaign.specs.iter().map(|_| None).collect(),
            barrier: None,
            checkpoints: Vec::new(),
        };
        let Some(dir) = campaign.run_dir else { return resume };
        let loaded: Vec<_> = campaign.specs.iter().map(|spec| dir.load_shard(spec)).collect();
        // Shards already complete on disk load without recomputation. But
        // exchange barriers couple every shard, so per-shard reuse is
        // only sound without exchange, or when *all* shards are complete
        // (whole-shard reuse, not checkpoint restoration: no epoch counts
        // as restored). Otherwise a multi-epoch run restarts every shard
        // from the latest barrier at which all checkpoints persisted.
        if epochs == 1 || loaded.iter().all(Option::is_some) {
            resume.loaded = loaded;
        } else if let Some((barrier, checkpoints)) =
            dir.latest_restorable_epoch(campaign.specs.len(), epochs)
        {
            resume.barrier = Some(barrier);
            resume.checkpoints = checkpoints;
        }
        resume
    }
}

/// The part of a campaign config that determines differential-testing
/// results for a given program: campaigns with equal contexts share a
/// result cache. Program inputs are derived from `(seed, program
/// structure)` (see `llm4fp::campaign`), so a cached matrix result is
/// valid for any campaign in the same context, and cross-approach
/// duplicates are only tested once per suite. Backend identity is part
/// of the context — cache keys are backend-scoped anyway, so sharing
/// across backends would be sound but would conflate the per-campaign
/// hit-rate statistics.
#[derive(Debug, Clone, PartialEq)]
struct TestContext {
    seed: u64,
    precision: Precision,
    compilers: Vec<CompilerId>,
    levels: Vec<OptLevel>,
    backend: BackendSpec,
}

impl TestContext {
    fn of(config: &CampaignConfig) -> Self {
        TestContext {
            seed: config.seed,
            precision: config.precision,
            compilers: config.compilers.clone(),
            levels: config.levels.clone(),
            backend: config.backend.clone(),
        }
    }
}

/// The body of [`drive`]: load what the run directories hold, flatten
/// the rest into tasks, drive the session through the epoch-barrier
/// protocol, then merge each campaign.
fn execute(
    campaigns: &[CampaignRun],
    options: &OrchestratorOptions,
    executor: &dyn ShardExecutor,
    start: Instant,
    clock: Clock,
) -> Result<Vec<OrchestratedResult>, OrchestratorError> {
    let epochs = options.epochs.max(1);
    let mut resumes: Vec<Resume> = campaigns.iter().map(|c| Resume::of(c, epochs)).collect();
    // Cache statistics only make sense when the transport actually
    // consults the coordinator's cache handles.
    let mut contexts: Vec<(TestContext, Arc<ResultCache>)> = Vec::new();
    let caches: Vec<Option<Arc<ResultCache>>> = campaigns
        .iter()
        .map(|campaign| {
            if !options.cache || !executor.shares_cache() {
                return None;
            }
            let context = TestContext::of(campaign.config);
            if let Some((_, cache)) = contexts.iter().find(|(known, _)| *known == context) {
                return Some(Arc::clone(cache));
            }
            let cache = Arc::new(ResultCache::new());
            contexts.push((context, Arc::clone(&cache)));
            Some(cache)
        })
        .collect();
    // Flatten every campaign's shards still to compute into one task list,
    // campaign-major and in shard-index order within a campaign.
    let mut tasks = Vec::new();
    let mut owners = Vec::new();
    for (owner, (campaign, resume)) in campaigns.iter().zip(&mut resumes).enumerate() {
        // A restored barrier recomputes every shard, so its checkpoints
        // pair with the tasks in plan order.
        let mut checkpoints = std::mem::take(&mut resume.checkpoints).into_iter();
        for (spec, _) in campaign.specs.iter().zip(&resume.loaded).filter(|(_, l)| l.is_none()) {
            tasks.push(ShardTask {
                config: campaign.config.clone(),
                spec: *spec,
                cache: caches[owner].clone(),
                // Telemetry is never part of checkpoints; the task's lane
                // handle covers both the fresh and the restored path.
                telemetry: campaign.hub.lane(spec.index),
                checkpoint: checkpoints.next(),
            });
            owners.push(owner);
        }
    }
    // Only a run-dir campaign restores a barrier, and only a single-campaign
    // run has a run dir, so one start epoch serves every task.
    let start_epoch = resumes.iter().find_map(|r| r.barrier).map_or(0, |barrier| barrier + 1);
    let specs: Vec<ShardSpec> = tasks.iter().map(|task| task.spec).collect();
    let segments: Vec<Vec<usize>> =
        specs.iter().map(|spec| plan_epoch_segments(spec.budget, epochs)).collect();
    let sink = CampaignSink {
        runs: campaigns.iter().map(|c| c.run_dir).collect(),
        owners,
        windows: campaigns.iter().map(|_| Mutex::new(None)).collect(),
    };
    let persisting = campaigns.iter().any(|c| c.run_dir.is_some());

    let outcome = if tasks.is_empty() {
        SessionOutcome::default()
    } else {
        let mut session = executor.begin(tasks, &sink)?;
        for epoch in start_epoch..epochs {
            let last = epoch + 1 == epochs;
            let plan: Vec<usize> = segments.iter().map(|segments| segments[epoch]).collect();
            let deltas = session.run_epoch(&plan, last)?;
            if last {
                break;
            }
            let _spans: Vec<_> = campaigns
                .iter()
                .map(|c| c.hub.lane(c.specs.len()).span(keys::SPAN_EXCHANGE))
                .collect();
            // Merge the epoch's deltas in task order — each campaign's in
            // shard-index order, into a set of its own (which deduplicates
            // by the hashes the deltas carry) — then broadcast them back
            // into its shards, whose sets already hold every earlier
            // broadcast.
            let mut merged: Vec<SuccessfulSet> =
                campaigns.iter().map(|_| SuccessfulSet::new()).collect();
            for (&owner, delta) in sink.owners.iter().zip(&deltas) {
                merged[owner].merge(delta);
            }
            let broadcast: Vec<&SuccessfulSet> =
                sink.owners.iter().map(|&owner| &merged[owner]).collect();
            session.inject(&broadcast)?;
            if persisting {
                // Checkpoints are taken after injection, mirroring the
                // runner-side checkpoint-after-inject order. Writes are
                // best-effort (a missing checkpoint only costs recompute on
                // resume) — but never silently so.
                let checkpoints = session.checkpoints()?;
                for ((&owner, spec), checkpoint) in sink.owners.iter().zip(&specs).zip(checkpoints)
                {
                    let Some(dir) = campaigns[owner].run_dir else { continue };
                    if dir.write_checkpoint(spec.index, epoch, &checkpoint).is_err() {
                        dir.note_persist_error();
                    }
                }
            }
        }
        session.finish()?
    };

    // Regroup by campaign: loaded shards in plan order, computed ones
    // filling the gaps.
    let mut fresh = outcome.shards.into_iter();
    let results = campaigns
        .iter()
        .zip(resumes)
        .zip(caches)
        .enumerate()
        .map(|(index, ((campaign, resume), cache))| {
            let mut outputs = Vec::with_capacity(resume.loaded.len());
            let (mut reused, mut computed, mut pipeline_time) = (0, 0, Duration::ZERO);
            for slot in resume.loaded {
                match slot {
                    Some(output) => {
                        reused += 1;
                        outputs.push(output);
                    }
                    None => {
                        let output = fresh.next().expect("one session output per planned task");
                        computed += 1;
                        pipeline_time += output.pipeline_time;
                        outputs.push(output);
                    }
                }
            }
            let peak_regs = outputs.iter().filter_map(|o| o.peak_regs).max();
            let (merge_time, window) = match clock {
                Clock::Run => (start.elapsed(), None),
                Clock::PerCampaign => (pipeline_time, sink.window(index)),
            };
            let result = merge_shards(campaign.config, outputs, merge_time);
            let stats = RunStats {
                shards: campaign.specs.len(),
                workers: options.workers,
                epochs,
                shards_reused: reused,
                shards_computed: computed,
                epochs_restored: resume.barrier.map_or(0, |barrier| barrier + 1),
                // Campaigns sharing a cache (equal test contexts) report
                // that cache's suite-wide totals: per-campaign attribution
                // isn't separable from shared counters.
                cache: cache.map(|c| c.stats()),
                peak_regs,
                wall_time: window.unwrap_or_else(|| start.elapsed()),
                shard_pipeline_time: pipeline_time,
                telemetry: campaign.hub.enabled().then(|| campaign.hub.summary()),
                failures: Vec::new(),
                persist_errors: campaign.run_dir.map_or(0, RunDir::persist_errors),
                // Supervision is suite-wide, like a shared cache: every
                // campaign reports the session's totals.
                supervision: outcome.supervision,
            };
            OrchestratedResult { result, stats }
        })
        .collect();
    Ok(results)
}

/// The driver's [`ProgressSink`]. When a task's shard completes it writes
/// the shard file into its campaign's run directory (if any), counting a
/// failed write as a persist error: a missing shard file only costs
/// recompute on resume, never the computation. It also keeps each
/// campaign's activity window for [`Clock::PerCampaign`]: from the first
/// progress the pool reports to the completion of its last shard.
struct CampaignSink<'a> {
    /// Campaign index -> its run directory.
    runs: Vec<Option<&'a RunDir>>,
    /// Task index -> campaign index.
    owners: Vec<usize>,
    /// Campaign index -> (first, last) activity.
    windows: Vec<Mutex<Option<(Instant, Instant)>>>,
}

impl CampaignSink<'_> {
    fn window(&self, campaign: usize) -> Option<Duration> {
        self.windows[campaign].lock().unwrap().map(|(first, last)| last - first)
    }
}

impl ProgressSink for CampaignSink<'_> {
    fn progress(&self, task: usize) {
        let now = Instant::now();
        let mut window = self.windows[self.owners[task]].lock().unwrap();
        *window = Some((window.map_or(now, |(first, _)| first), now));
    }

    fn complete(&self, task: usize, output: &ShardOutput) {
        self.progress(task);
        if let Some(dir) = self.runs[self.owners[task]] {
            if dir.write_shard(output).is_err() {
                dir.note_persist_error();
            }
        }
    }
}
