//! The campaign orchestrator: sharded execution behind a pluggable
//! [`ShardExecutor`] transport, with optional epoch-based cross-shard
//! feedback exchange, result caching and persistent, resumable run
//! directories.
//!
//! ## One builder, any transport
//!
//! The public API is a single builder:
//!
//! ```ignore
//! let outcome = Orchestrator::new(config)
//!     .shards(4)
//!     .epochs(2)
//!     .executor(Arc::new(ProcessPoolExecutor::new(4)))
//!     .run()?;
//! ```
//!
//! Planning (shard decomposition, epoch barriers, delta merging,
//! persistence, telemetry) lives here and is shared by every transport;
//! only the mechanics of running a segment differ between
//! [`InProcessExecutor`] (the default) and out-of-process executors.
//!
//! ## Cross-shard feedback exchange
//!
//! A plain sharded run keeps each shard's successful set private, so at
//! `K` shards Feedback-Based Mutation draws from ~1/K of the campaign's
//! findings. With `epochs = E > 1` every shard runs its budget in `E`
//! segments; after each segment the shards synchronize at a deterministic
//! barrier where their newly found successful sources (the *deltas*) are
//! merged in shard-index order into a global pool — structurally
//! deduplicated with the same hashing as the per-shard sets — and the
//! merged pool is broadcast back, so every shard's feedback mutation
//! draws from the union in the next epoch.
//!
//! The determinism contract extends to `(config, K, E)`: barrier order is
//! fixed by shard index (never completion order), so results stay
//! bit-identical across worker counts *and transports*, and `E = 1` runs
//! the exact no-exchange code path. Persisted multi-epoch runs record the
//! pool and every shard's paused checkpoint at each barrier, so a killed
//! campaign resumes mid-run from the latest complete barrier and still
//! reproduces the uninterrupted result bit for bit.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

use llm4fp::{Campaign, CampaignConfig, CampaignResult, ProgramRecord, SuccessfulSet};
use llm4fp_difftest::{CacheStats, ProcessBudget, ResultCache};
use llm4fp_telemetry::{keys, TelemetryHub, TelemetrySpec, TelemetrySummary};

use crate::executor::{InProcessExecutor, OrchestratorError, RecordSink, ShardExecutor, ShardTask};
use crate::faults::PersistFault;
use crate::persist::{RunDir, RunManifest, ShardWriter};
use crate::shard::{
    merge_shards, plan_epoch_segments, plan_shards, ShardFailureReport, ShardOutput, ShardSpec,
};

/// How an orchestrated run executes.
#[derive(Debug, Clone)]
pub struct OrchestratorOptions {
    /// Worker threads for shard execution; each shard runs its difftest
    /// matrix on the worker thread that runs the shard, so this is the
    /// run's only compute parallelism (`config.threads` is inert).
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
    /// The process-pool bound for external-backend campaigns: at most
    /// this many shards spawn compiler/binary processes concurrently,
    /// **separately** from the thread pool — a mixed virtual/real suite
    /// keeps its virtual shards saturating `workers` threads on the
    /// sealed VM while the external shards throttle their spawns.
    /// Throttling changes wall-clock interleaving only; recorded results
    /// and merge order are unaffected. Defaults to the machine's
    /// available parallelism; ignored by virtual campaigns.
    pub process_slots: usize,
    /// Persist the run (config, per-program progress, epoch barriers,
    /// shard outputs, merged result) into this directory, and resume from
    /// whatever complete state is already present.
    pub run_dir: Option<PathBuf>,
    /// Telemetry collection for this run (off by default — the disabled
    /// path costs one branch per call site). With `metrics` on, persisted
    /// runs also write the deterministic `metrics.json` flight recorder;
    /// with `trace` on, a Chrome `trace_event`-compatible `trace.jsonl`.
    /// Collection is pure observation: results are bit-identical with
    /// telemetry on or off.
    pub telemetry: TelemetrySpec,
    /// The graceful-degradation rung: when the configured transport's
    /// workers cannot be (re)spawned at all
    /// ([`OrchestratorError::WorkerUnavailable`]), rerun the campaign on
    /// the [`InProcessExecutor`] instead of failing. Sound because every
    /// transport is pinned bit-identical — the degraded run's results
    /// are *unchanged*, only slower/less isolated. Off by default (an
    /// unavailable transport is then a hard error), and recorded in
    /// [`RunStats::fell_back_to_in_process`] when it triggers.
    pub fallback_to_in_process: bool,
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
            process_slots: default_workers(),
            run_dir: None,
            telemetry: TelemetrySpec::OFF,
            fallback_to_in_process: false,
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
    /// prepared during this run — a readout of the seal-time register
    /// coalescing. `None` when no shard reported one (all shards reused
    /// from a pre-optimizer run dir); telemetry only, never part of the
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
    /// Shards the quarantine policy retired after exhausting their
    /// dispatch budget, with attempt counts and last errors. Empty on
    /// healthy runs and always empty under the default Abort policy
    /// (which errors out instead). Supervision bookkeeping, not campaign
    /// telemetry — it describes this invocation's luck, never the
    /// deterministic `(config, K, E)` result.
    pub failures: Vec<ShardFailureReport>,
    /// Best-effort persistence writes this run dropped (shard progress
    /// lines, barrier artifacts). `0` on healthy runs; dropped lines only
    /// cost recompute-on-resume, never results.
    pub persist_errors: u64,
    /// Whether the configured transport was unavailable and the run
    /// completed on the in-process fallback instead (see
    /// [`OrchestratorOptions::fallback_to_in_process`]).
    pub fell_back_to_in_process: bool,
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
            if !self.failures.is_empty() {
                parts.push_str(&format!(", {} shard(s) quarantined", self.failures.len()));
            }
            if self.persist_errors > 0 {
                parts.push_str(&format!(", {} persist error(s)", self.persist_errors));
            }
            if self.fell_back_to_in_process {
                parts.push_str(", fell back to in-process");
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

    /// External-process concurrency bound (see
    /// [`OrchestratorOptions::process_slots`]).
    pub fn process_slots(mut self, slots: usize) -> Self {
        self.options.process_slots = slots;
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

    /// The graceful-degradation rung: rerun on the in-process executor
    /// (with unchanged results — transports are pinned bit-identical) if
    /// the configured transport's workers cannot be spawned at all. See
    /// [`OrchestratorOptions::fallback_to_in_process`].
    pub fn fallback_to_in_process(mut self, fallback: bool) -> Self {
        self.options.fallback_to_in_process = fallback;
        self
    }

    /// Arm deterministic persistence faults for chaos testing (see
    /// [`PersistFault`] — worker faults are armed on the executor via
    /// [`crate::ProcessPoolExecutor::with_fault_plan`]).
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

    /// Run the configured campaign: plan shards, drive the executor's
    /// session through the epoch-barrier protocol, merge outputs, and
    /// persist (if a run directory is set).
    pub fn run(self) -> Result<OrchestratedResult, OrchestratorError> {
        let Orchestrator { config, shards, options, executor } = self;
        if options.workers == 0 {
            return Err(OrchestratorError::InvalidWorkers);
        }
        let start = Instant::now();
        let specs = plan_shards(&config, shards);
        let epochs = options.epochs.max(1);
        let mut executor: Arc<dyn ShardExecutor> =
            executor.unwrap_or_else(|| Arc::new(InProcessExecutor::new(options.workers)));
        let run_dir = match &options.run_dir {
            Some(root) => Some(
                RunDir::open(root, &RunManifest::new(config.clone(), specs.len(), epochs))?
                    .with_persist_faults(&options.persist_faults),
            ),
            None => None,
        };
        let hub = TelemetryHub::new(options.telemetry);
        let mut fell_back = false;
        let (outcome, cache) = loop {
            // Cache statistics only make sense when the transport actually
            // consults the coordinator's cache handles.
            let cache =
                (options.cache && executor.shares_cache()).then(|| Arc::new(ResultCache::new()));
            let attempt = {
                // The orchestrator's own lane sits past every shard lane.
                let _run = hub.lane(specs.len()).span(keys::SPAN_RUN);
                execute(
                    &config,
                    &specs,
                    epochs,
                    &options,
                    executor.as_ref(),
                    cache.as_ref(),
                    run_dir.as_ref(),
                    &hub,
                )
            };
            match attempt {
                Ok(outcome) => break (outcome, cache),
                // The degradation ladder: a transport whose workers can't
                // even be spawned reruns in process with unchanged results
                // (anything the dead attempt persisted — sealed shards,
                // barrier files — is picked right back up by resume).
                Err(OrchestratorError::WorkerUnavailable(why))
                    if options.fallback_to_in_process && !fell_back =>
                {
                    eprintln!(
                        "llm4fp-orchestrator: worker transport unavailable ({why}); \
                         falling back to in-process execution"
                    );
                    executor = Arc::new(InProcessExecutor::new(options.workers));
                    fell_back = true;
                }
                Err(e) => return Err(e),
            }
        };
        let peak_regs = outcome.outputs.iter().filter_map(|o| o.peak_regs).max();
        let result = merge_shards(&config, outcome.outputs, start.elapsed());
        let fully_computed = outcome.reused == 0 && outcome.epochs_restored == 0;
        let stats = RunStats {
            shards: specs.len(),
            workers: options.workers,
            epochs,
            shards_reused: outcome.reused,
            shards_computed: outcome.computed,
            epochs_restored: outcome.epochs_restored,
            cache: cache.map(|c| c.stats()),
            peak_regs,
            wall_time: start.elapsed(),
            shard_pipeline_time: outcome.pipeline_time,
            telemetry: hub.enabled().then(|| hub.summary()),
            failures: outcome.failures,
            persist_errors: run_dir.as_ref().map_or(0, |dir| dir.persist_errors()),
            fell_back_to_in_process: fell_back,
        };
        if let Some(dir) = &run_dir {
            dir.write_result(&result)?;
            dir.write_summary(&stats)?;
            // The flight recorder is only written for fully computed runs
            // with no quarantined shards: reused shards, restored epochs
            // and quarantined shards record nothing (or only part), so a
            // partial recompute would under-count relative to the
            // determinism contract's byte-identical promise.
            if hub.enabled() && fully_computed && stats.failures.is_empty() {
                dir.write_metrics(&hub.metrics())?;
            }
            if hub.spec().trace_enabled() {
                dir.write_trace(&hub.trace_events())?;
            }
        }
        Ok(OrchestratedResult { stats, result })
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

    /// Deprecated convenience entry point: run `config` split into
    /// `shards` shards with default options, returning just the campaign
    /// result.
    #[deprecated(since = "0.3.0", note = "use `Orchestrator::new(config).shards(k).run()`")]
    pub fn run_sharded(config: &CampaignConfig, shards: usize) -> CampaignResult {
        Orchestrator::new(config.clone())
            .shards(shards)
            .run()
            .expect("in-memory orchestrated run cannot fail")
            .result
    }

    /// Deprecated convenience entry point: like `run_sharded`, with
    /// `epochs` cross-shard feedback-exchange epochs.
    #[deprecated(
        since = "0.3.0",
        note = "use `Orchestrator::new(config).shards(k).epochs(e).run()`"
    )]
    pub fn run_sharded_epochs(
        config: &CampaignConfig,
        shards: usize,
        epochs: usize,
    ) -> CampaignResult {
        Orchestrator::new(config.clone())
            .shards(shards)
            .epochs(epochs)
            .run()
            .expect("in-memory orchestrated run cannot fail")
            .result
    }
}

/// The unified execution engine shared by every transport: load reusable
/// shard outputs, build [`ShardTask`]s for the rest, and drive the
/// executor's session through the epoch-barrier protocol.
#[allow(clippy::too_many_arguments)]
fn execute(
    config: &CampaignConfig,
    specs: &[ShardSpec],
    epochs: usize,
    options: &OrchestratorOptions,
    executor: &dyn ShardExecutor,
    cache: Option<&Arc<ResultCache>>,
    run_dir: Option<&RunDir>,
    hub: &TelemetryHub,
) -> Result<ExecOutcome, OrchestratorError> {
    // External campaigns share one process budget across all in-process
    // shards (out-of-process workers rebuild their own from
    // `process_slots`); virtual campaigns never allocate one.
    let budget =
        config.backend.is_external().then(|| Arc::new(ProcessBudget::new(options.process_slots)));
    // Shards already complete on disk load without recomputation.
    let mut loaded: Vec<Option<ShardOutput>> =
        specs.iter().map(|spec| run_dir.and_then(|dir| dir.load_shard(spec))).collect();
    let mut reused = loaded.iter().filter(|o| o.is_some()).count();
    if reused == specs.len() {
        // Whole-shard reuse, not checkpoint restoration: no barrier
        // checkpoint was read, so `epochs_restored` stays 0.
        return Ok(ExecOutcome {
            outputs: loaded.into_iter().map(|o| o.expect("all loaded")).collect(),
            reused,
            computed: 0,
            epochs_restored: 0,
            pipeline_time: Duration::ZERO,
            failures: Vec::new(),
        });
    }
    // Exchange barriers couple every shard, so per-shard reuse is only
    // sound without exchange (or when *all* shards were complete, which
    // returned above). Multi-epoch runs instead restart every shard from
    // the latest barrier at which the pool and all checkpoints persisted.
    let restored_barrier = if epochs > 1 {
        loaded = specs.iter().map(|_| None).collect();
        reused = 0;
        run_dir.and_then(|dir| dir.latest_restorable_epoch(specs.len(), epochs))
    } else {
        None
    };
    let task_specs: Vec<ShardSpec> = specs
        .iter()
        .zip(&loaded)
        .filter(|(_, loaded)| loaded.is_none())
        .map(|(spec, _)| *spec)
        .collect();

    // The cumulative exchange pool, in deterministic merge order.
    let mut pool = SuccessfulSet::new();
    if let (Some(barrier), Some(dir)) = (restored_barrier, run_dir) {
        pool.merge_sources(
            &dir.load_epoch_pool(barrier).expect("validated by latest_restorable_epoch"),
        );
    }

    let tasks: Vec<ShardTask> = task_specs
        .iter()
        .map(|spec| ShardTask {
            config: config.clone(),
            spec: *spec,
            cache: cache.map(Arc::clone),
            budget: budget.clone(),
            process_slots: options.process_slots,
            // Telemetry is never part of checkpoints; the task's lane
            // handle covers both the fresh and the restored path.
            telemetry: hub.lane(spec.index),
            checkpoint: restored_barrier.map(|barrier| {
                run_dir
                    .expect("a restored barrier implies a run dir")
                    .load_checkpoint(spec.index, barrier)
                    .expect("validated by latest_restorable_epoch")
            }),
        })
        .collect();

    let sink = WriterSink::new(run_dir, &task_specs, hub);
    let mut session = executor.begin(tasks, &sink)?;
    let segments: Vec<Vec<usize>> =
        task_specs.iter().map(|spec| plan_epoch_segments(spec.budget, epochs)).collect();
    let start_epoch = restored_barrier.map_or(0, |barrier| barrier + 1);

    for epoch in start_epoch..epochs {
        let last = epoch + 1 == epochs;
        let plan: Vec<usize> = segments.iter().map(|segments| segments[epoch]).collect();
        let deltas = session.run_epoch(&plan, last)?;
        if last {
            break;
        }
        let _span = hub.lane(specs.len()).span(keys::SPAN_EXCHANGE);
        // Merge the epoch's deltas in shard-index order (the pool
        // deduplicates structurally), persist the barrier, then
        // broadcast the merged pool back into every shard.
        for delta in &deltas {
            pool.merge_sources(delta);
        }
        let snapshot = pool.sources().to_vec();
        if let Some(dir) = run_dir {
            // Barrier artifacts are best-effort (a missing one only costs
            // recompute on resume) — but never silently so.
            if dir.write_epoch_pool(epoch, &snapshot).is_err() {
                dir.note_persist_error();
            }
        }
        let broadcast: Vec<&[String]> = task_specs.iter().map(|_| snapshot.as_slice()).collect();
        session.inject(&broadcast)?;
        if let Some(dir) = run_dir {
            // Checkpoints are taken after injection, mirroring the
            // runner-side checkpoint-after-inject order. Quarantined
            // shards have no live barrier state (`None`) and persist
            // nothing.
            for (spec, checkpoint) in task_specs.iter().zip(session.checkpoints()?) {
                let Some(checkpoint) = checkpoint else { continue };
                if dir.write_checkpoint(spec.index, epoch, &checkpoint).is_err() {
                    dir.note_persist_error();
                }
            }
        }
    }

    let session_outcome = session.finish()?;
    let mut failures = Vec::new();
    let mut fresh: Vec<Option<ShardOutput>> = Vec::with_capacity(session_outcome.shards.len());
    for shard in session_outcome.shards {
        match shard {
            Ok(output) => fresh.push(Some(output)),
            Err(report) => {
                failures.push(report);
                fresh.push(None);
            }
        }
    }
    let pipeline_time = fresh.iter().flatten().map(|o| o.pipeline_time).sum();
    let computed = fresh.iter().filter(|o| o.is_some()).count();
    let mut fresh = fresh.into_iter();
    for slot in loaded.iter_mut() {
        if slot.is_none() {
            *slot = fresh.next().expect("one session result per planned task");
        }
    }
    // Quarantined shards contribute nothing to the merge; a run where
    // *nothing* survived has no result to report at all.
    let outputs: Vec<ShardOutput> = loaded.into_iter().flatten().collect();
    if outputs.is_empty() && !failures.is_empty() {
        return Err(OrchestratorError::Executor(format!(
            "every shard was quarantined ({} failure(s)); last: {}",
            failures.len(),
            failures.last().map(|f| f.last_error.as_str()).unwrap_or("unknown")
        )));
    }
    Ok(ExecOutcome {
        outputs,
        reused,
        computed,
        epochs_restored: start_epoch,
        pipeline_time,
        failures,
    })
}

/// The orchestrator's [`RecordSink`]: streams per-program progress lines
/// into the run directory's shard files as they happen, and seals each
/// file when the shard completes. Persistence failures on progress lines
/// never kill the computation — the summary write decides completeness.
struct WriterSink {
    writers: Vec<Mutex<Option<ShardWriter>>>,
}

impl WriterSink {
    fn new(run_dir: Option<&RunDir>, specs: &[ShardSpec], hub: &TelemetryHub) -> Self {
        WriterSink {
            writers: specs
                .iter()
                .map(|spec| {
                    Mutex::new(run_dir.and_then(|dir| {
                        // Dropped lines count into the shard's own lane,
                        // so the keyed ids match across transports.
                        dir.shard_writer(spec, hub.lane(spec.index)).ok()
                    }))
                })
                .collect(),
        }
    }
}

impl RecordSink for WriterSink {
    fn record(&self, task: usize, record: &ProgramRecord) {
        if let Some(writer) = self.writers[task].lock().unwrap().as_mut() {
            writer.record(record);
        }
    }

    fn complete(&self, task: usize, output: &ShardOutput) {
        if let Some(writer) = self.writers[task].lock().unwrap().take() {
            let _ = writer.finish(output);
        }
    }
}

struct ExecOutcome {
    outputs: Vec<ShardOutput>,
    reused: usize,
    computed: usize,
    epochs_restored: usize,
    pipeline_time: Duration,
    /// Per-shard quarantine reports (empty unless the executor ran with
    /// the Quarantine failure policy and shards actually failed).
    failures: Vec<ShardFailureReport>,
}

/// Compare an orchestrated run against the sequential driver (used by
/// tests and kept public for doc examples / sanity scripts).
pub fn matches_sequential(config: &CampaignConfig) -> bool {
    let orchestrated = Orchestrator::new(config.clone())
        .run()
        .expect("in-memory orchestrated run cannot fail")
        .result;
    let sequential = Campaign::new(config.clone()).run();
    orchestrated.records == sequential.records
        && orchestrated.sources == sequential.sources
        && orchestrated.successful_sources == sequential.successful_sources
        && orchestrated.aggregates == sequential.aggregates
}
