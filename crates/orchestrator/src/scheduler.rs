//! Multi-campaign scheduling with a shared worker budget.
//!
//! The paper's evaluation (Tables 2–5) runs four campaigns — one per
//! approach. Running them back to back wastes the pool whenever one
//! campaign's tail shards leave workers idle; the scheduler flattens every
//! campaign's shards into one task list so the pool stays saturated across
//! campaign boundaries. The flattened list runs on any [`ShardExecutor`]
//! — the same transports (and the same barrier protocol) as
//! single-campaign orchestration.
//!
//! Campaigns whose test context matches — same seed, precision and
//! compiler/level matrix — share one result cache: program inputs are
//! derived from `(seed, program structure)` (see `llm4fp::campaign`), so a
//! cached matrix result is valid for any campaign in the same context, and
//! cross-approach duplicates (Varity and the LLM approaches drawing the
//! same idiom) are only tested once per suite.

use std::sync::{Arc, Mutex};
use std::time::Instant;

use llm4fp::{BackendSpec, CampaignConfig, ProgramRecord, SuccessfulSet};
use llm4fp_compiler::{CompilerId, OptLevel};
use llm4fp_difftest::{ProcessBudget, ResultCache};
use llm4fp_fpir::Precision;
use llm4fp_telemetry::{keys, TelemetryHub};

use crate::executor::{InProcessExecutor, OrchestratorError, RecordSink, ShardExecutor, ShardTask};
use crate::orchestrate::{OrchestratedResult, OrchestratorOptions, RunStats};
use crate::shard::{merge_shards, plan_epoch_segments, plan_shards, ShardOutput, ShardSpec};

/// The part of a campaign config that determines differential-testing
/// results for a given program: configs with equal contexts may share a
/// result cache. Backend identity is part of the context — cache keys
/// are backend-scoped anyway, so sharing across backends would be sound
/// but would conflate the per-campaign hit-rate statistics.
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

/// Runs a suite of campaigns concurrently over one worker pool. Builder
/// style, mirroring [`crate::Orchestrator`]:
///
/// ```ignore
/// let results = Scheduler::new(options).shards(4).run(&configs)?;
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler {
    options: OrchestratorOptions,
    shards: usize,
    executor: Option<Arc<dyn ShardExecutor>>,
}

impl Default for Scheduler {
    fn default() -> Self {
        Scheduler::new(OrchestratorOptions::default())
    }
}

impl Scheduler {
    pub fn new(options: OrchestratorOptions) -> Self {
        Scheduler { options, shards: 1, executor: None }
    }

    /// Split every campaign into `shards` shards (default 1).
    pub fn shards(mut self, shards: usize) -> Self {
        self.shards = shards;
        self
    }

    /// Run the suite's flattened shard list through this transport
    /// instead of the default [`InProcessExecutor`]. Results are
    /// bit-identical for any executor.
    pub fn executor(mut self, executor: Arc<dyn ShardExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Run every campaign (each split into the configured shard count
    /// and, when `options.epochs > 1`, its own cross-shard feedback
    /// exchange), sharing the worker pool and, where sound, the result
    /// cache. Results come back in input order and are bit-identical to
    /// orchestrating each campaign individually with the same shard and
    /// epoch counts: exchange barriers are suite-wide (the pool stays
    /// saturated across campaign boundaries within an epoch), but deltas
    /// only ever merge into the pool of the campaign that produced them.
    ///
    /// Persistence (`options.run_dir`) applies to single-campaign runs via
    /// [`crate::Orchestrator`]; the scheduler itself executes in memory.
    pub fn run(
        &self,
        configs: &[CampaignConfig],
    ) -> Result<Vec<OrchestratedResult>, OrchestratorError> {
        if self.options.workers == 0 {
            return Err(OrchestratorError::InvalidWorkers);
        }
        let start = Instant::now();
        let epochs = self.options.epochs.max(1);
        let executor: Arc<dyn ShardExecutor> = self
            .executor
            .clone()
            .unwrap_or_else(|| Arc::new(InProcessExecutor::new(self.options.workers)));

        // One cache per distinct test context (None when caching is off,
        // or when the transport never consults coordinator-side caches).
        let contexts: Vec<TestContext> = configs.iter().map(TestContext::of).collect();
        let caches: Vec<Option<Arc<ResultCache>>> = if self.options.cache && executor.shares_cache()
        {
            let mut distinct: Vec<(TestContext, Arc<ResultCache>)> = Vec::new();
            contexts
                .iter()
                .map(|ctx| {
                    if let Some((_, cache)) = distinct.iter().find(|(c, _)| c == ctx) {
                        Some(Arc::clone(cache))
                    } else {
                        let cache = Arc::new(ResultCache::new());
                        distinct.push((ctx.clone(), Arc::clone(&cache)));
                        Some(cache)
                    }
                })
                .collect()
        } else {
            vec![None; configs.len()]
        };

        // Flatten every campaign's shards into one task list.
        let plans: Vec<Vec<ShardSpec>> =
            configs.iter().map(|config| plan_shards(config, self.shards)).collect();
        let tasks: Vec<(usize, ShardSpec)> = plans
            .iter()
            .enumerate()
            .flat_map(|(campaign, specs)| specs.iter().map(move |spec| (campaign, *spec)))
            .collect();

        // One suite-wide process budget bounds every external campaign's
        // spawns; virtual campaigns in the same suite stay unthrottled on
        // the thread pool (the mixed virtual/real regime).
        let budget = configs
            .iter()
            .any(|config| config.backend.is_external())
            .then(|| Arc::new(ProcessBudget::new(self.options.process_slots)));

        // One telemetry hub per campaign (lanes are shard indices within
        // the campaign), so each campaign's metrics merge exactly as its
        // individual orchestration would — no cross-campaign bleed.
        let hubs: Vec<TelemetryHub> =
            configs.iter().map(|_| TelemetryHub::new(self.options.telemetry)).collect();

        let shard_tasks: Vec<ShardTask> = tasks
            .iter()
            .map(|(campaign, spec)| ShardTask {
                config: configs[*campaign].clone(),
                spec: *spec,
                cache: caches[*campaign].clone(),
                budget: if configs[*campaign].backend.is_external() {
                    budget.clone()
                } else {
                    None
                },
                process_slots: self.options.process_slots,
                telemetry: hubs[*campaign].lane(spec.index),
                checkpoint: None,
            })
            .collect();
        let segments: Vec<Vec<usize>> =
            tasks.iter().map(|(_, spec)| plan_epoch_segments(spec.budget, epochs)).collect();
        let mut pools: Vec<SuccessfulSet> = configs.iter().map(|_| SuccessfulSet::new()).collect();

        let sink = TimingSink::new(tasks.iter().map(|(campaign, _)| *campaign).collect());
        let mut session = executor.begin(shard_tasks, &sink)?;

        for epoch in 0..epochs {
            let last = epoch + 1 == epochs;
            let plan: Vec<usize> = segments.iter().map(|segments| segments[epoch]).collect();
            let deltas = session.run_epoch(&plan, last)?;
            if last {
                break;
            }
            // Each campaign's hub times the suite-wide barrier on its
            // own orchestrator lane (one index past its shards).
            let _spans: Vec<_> = hubs
                .iter()
                .zip(&plans)
                .map(|(hub, plan)| hub.lane(plan.len()).span(keys::SPAN_EXCHANGE))
                .collect();
            // Task order is campaign-major then shard index, so each
            // campaign's deltas merge in exactly the order its
            // individual orchestration would use.
            for ((campaign, _), delta) in tasks.iter().zip(&deltas) {
                pools[*campaign].merge_sources(delta);
            }
            let broadcast: Vec<&[String]> =
                tasks.iter().map(|(campaign, _)| pools[*campaign].sources()).collect();
            session.inject(&broadcast)?;
        }

        let session_outcome = session.finish()?;

        // Regroup by campaign (merge_shards re-sorts by shard index).
        // Quarantined shards land in their campaign's failure reports
        // instead of its merge set — one poisonous shard degrades only
        // its own campaign's coverage, never the whole suite.
        let suite_elapsed = start.elapsed();
        let campaign_walls = sink.campaign_walls(suite_elapsed);
        let mut grouped: Vec<Vec<ShardOutput>> = configs.iter().map(|_| Vec::new()).collect();
        let mut campaign_failures: Vec<Vec<_>> = configs.iter().map(|_| Vec::new()).collect();
        for ((campaign, _), shard) in tasks.iter().zip(session_outcome.shards) {
            match shard {
                Ok(output) => grouped[*campaign].push(output),
                Err(report) => campaign_failures[*campaign].push(report),
            }
        }
        Ok(configs
            .iter()
            .zip(grouped)
            .enumerate()
            .map(|(campaign, (config, mine))| {
                // Each campaign's pipeline time is the compute its own
                // shards performed; the suite-wide wall clock would
                // report the same (contended) figure for every approach
                // and flatten Table 2's time-cost comparison.
                let shard_pipeline_time: std::time::Duration =
                    mine.iter().map(|o| o.pipeline_time).sum();
                let shards_computed = mine.len();
                let peak_regs = mine.iter().filter_map(|o| o.peak_regs).max();
                let result = merge_shards(config, mine, shard_pipeline_time);
                OrchestratedResult {
                    stats: RunStats {
                        shards: shards_computed,
                        workers: self.options.workers,
                        epochs,
                        shards_reused: 0,
                        shards_computed,
                        epochs_restored: 0,
                        // NOTE: campaigns sharing a cache (equal test
                        // contexts) report that cache's suite-wide
                        // totals — per-campaign attribution isn't
                        // separable from shared counters.
                        cache: caches[campaign].as_ref().map(|c| c.stats()),
                        peak_regs,
                        wall_time: campaign_walls[campaign],
                        shard_pipeline_time,
                        telemetry: hubs[campaign].enabled().then(|| hubs[campaign].summary()),
                        failures: std::mem::take(&mut campaign_failures[campaign]),
                        persist_errors: 0,
                        fell_back_to_in_process: false,
                        // Supervision is suite-wide, like a shared cache:
                        // every campaign reports the session's totals.
                        supervision: session_outcome.supervision,
                    },
                    result,
                }
            })
            .collect())
    }
}

/// The scheduler's [`RecordSink`]: per-campaign wall clocks. A campaign's
/// elapsed time runs from the instant the pool first processes one of its
/// programs to the instant its last shard makes progress or completes —
/// not the suite-wide elapsed, which would charge every campaign for
/// every other campaign's work and flatten Table 2's time-cost
/// comparison.
struct TimingSink {
    /// Task index -> campaign index.
    campaigns: Vec<usize>,
    timings: Vec<Mutex<(Option<Instant>, Option<Instant>)>>,
}

impl TimingSink {
    fn new(campaigns: Vec<usize>) -> Self {
        let campaign_count = campaigns.iter().copied().max().map_or(0, |max| max + 1);
        TimingSink {
            campaigns,
            timings: (0..campaign_count).map(|_| Mutex::new((None, None))).collect(),
        }
    }

    fn touch(&self, task: usize) {
        let mut timing = self.timings[self.campaigns[task]].lock().unwrap();
        timing.0.get_or_insert_with(Instant::now);
        timing.1 = Some(Instant::now());
    }

    fn campaign_walls(&self, fallback: std::time::Duration) -> Vec<std::time::Duration> {
        self.timings
            .iter()
            .map(|timing| match *timing.lock().unwrap() {
                (Some(first_start), Some(last_end)) => last_end - first_start,
                _ => fallback,
            })
            .collect()
    }
}

impl RecordSink for TimingSink {
    fn record(&self, task: usize, _record: &ProgramRecord) {
        self.touch(task);
    }

    fn complete(&self, task: usize, _output: &ShardOutput) {
        self.touch(task);
    }
}
