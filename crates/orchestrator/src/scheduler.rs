//! Multi-campaign scheduling with a shared worker budget.
//!
//! The paper's evaluation (Tables 2–5) runs four campaigns — one per
//! approach. Running them back to back wastes the pool whenever one
//! campaign's tail shards leave workers idle. [`Scheduler`] is the suite
//! front end of the crate's one campaign driver (see
//! [`crate::orchestrate`]): the driver flattens every campaign's shards
//! into one task list on one executor session, so the pool stays
//! saturated across campaign boundaries, and it runs the same barrier
//! protocol and result cache as a single [`crate::Orchestrator`] run.
//!
//! The suite's external-backend campaigns share the run's one result
//! cache, in process. Keys are scoped by everything that determines a
//! result — backend, input seed, precision and matrix — so same-seed
//! campaigns test a cross-approach duplicate (an LLM approach repeating
//! another's program) only once per suite. Virtual campaigns hold no
//! cache.

use std::sync::Arc;
use std::time::Instant;

use llm4fp::CampaignConfig;
use llm4fp_telemetry::TelemetryHub;

use crate::executor::{OrchestratorError, ShardExecutor};
use crate::orchestrate::{drive, CampaignRun, OrchestratedResult, OrchestratorOptions};
use crate::shard::{plan_shards, ShardSpec};

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
    /// instead of the default [`InProcessExecutor`](crate::InProcessExecutor). Results are
    /// bit-identical for any executor.
    pub fn executor(mut self, executor: Arc<dyn ShardExecutor>) -> Self {
        self.executor = Some(executor);
        self
    }

    /// Run every campaign (each split into the configured shard count
    /// and, when `options.epochs > 1`, its own cross-shard feedback
    /// exchange), sharing the worker pool and, for external-backend
    /// campaigns, the result cache. Results come back in input order and
    /// are bit-identical to orchestrating each campaign individually with
    /// the same shard and epoch counts: exchange barriers are suite-wide (the pool stays
    /// saturated across campaign boundaries within an epoch), but deltas
    /// only ever merge into the pool of the campaign that produced them.
    ///
    /// Each campaign's merged pipeline time is the sum of its own shards'
    /// pipeline times; its
    /// [`RunStats::wall_time`](crate::RunStats::wall_time) is the suite's
    /// elapsed time. A suite whose workers cannot be spawned fails with
    /// [`OrchestratorError::WorkerUnavailable`], exactly like a single
    /// campaign. Persistence (`options.run_dir`) applies to single-campaign runs via
    /// [`crate::Orchestrator`]; the scheduler itself executes in memory.
    pub fn run(
        &self,
        configs: &[CampaignConfig],
    ) -> Result<Vec<OrchestratedResult>, OrchestratorError> {
        let start = Instant::now();
        let plans: Vec<Vec<ShardSpec>> =
            configs.iter().map(|config| plan_shards(config, self.shards)).collect();
        let hubs: Vec<TelemetryHub> =
            configs.iter().map(|_| TelemetryHub::new(self.options.telemetry)).collect();
        let campaigns: Vec<CampaignRun> = configs
            .iter()
            .zip(&plans)
            .zip(&hubs)
            .map(|((config, specs), hub)| CampaignRun { config, specs, hub, run_dir: None })
            .collect();
        drive(&campaigns, &self.options, self.executor.clone(), start)
    }
}
