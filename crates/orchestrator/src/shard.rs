//! Shard planning, execution and deterministic merging.
//!
//! A campaign budget of N programs is decomposed into K shards, each an
//! independently runnable sub-campaign with its own RNG streams derived by
//! XOR-ing a mixed shard index into the campaign seed (shard 0 maps to the
//! seed itself and therefore runs the *exact* stream of the sequential
//! campaign, which is what makes `K = 1` orchestrated runs bit-identical
//! to [`llm4fp::Campaign::run`]; the index is spread by a large odd
//! multiplier so shards of campaigns with adjacent seeds never collide —
//! plain `seed ^ index` would make seed 43's shard 1 replay seed 42's
//! shard 0 stream, coupling supposedly independent replicates). Shards
//! never communicate;
//! like tiles with matching edge rules, their outputs compose into the
//! campaign result by a deterministic merge in shard order, so the final
//! result depends only on `(config, K)` — never on worker count or
//! completion order.

use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use llm4fp::{
    CampaignConfig, CampaignResult, CampaignRunner, ProgramRecord, RunnerCheckpoint, SuccessfulSet,
};
use llm4fp_difftest::{Aggregates, ResultCache};
use llm4fp_fpir::source_hash;
use llm4fp_telemetry::Telemetry;

/// Plan for one shard of a campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardSpec {
    /// Shard index within the campaign (0-based).
    pub index: usize,
    /// Number of programs this shard runs.
    pub budget: usize,
    /// Global index of this shard's first program.
    pub offset: usize,
    /// Derived base seed for the shard's RNG streams.
    pub seed: u64,
}

/// Large odd multiplier (the 64-bit golden-ratio constant) spreading the
/// shard index across the seed space; odd, so distinct indices map to
/// distinct offsets, and index 0 maps to 0 (preserving the `K = 1`
/// sequential-equality contract).
const SHARD_SEED_MIX: u64 = 0x9e37_79b9_7f4a_7c15;

/// The derived base seed for one shard of a campaign.
pub fn shard_seed(campaign_seed: u64, index: usize) -> u64 {
    campaign_seed ^ (index as u64).wrapping_mul(SHARD_SEED_MIX)
}

/// Split a budget of `programs` into `shards` shard specs. Budgets differ
/// by at most one program (the remainder goes to the leading shards) and
/// shard seeds come from [`shard_seed`].
pub fn plan_shards(config: &CampaignConfig, shards: usize) -> Vec<ShardSpec> {
    let shards = shards.max(1).min(config.programs.max(1));
    let base = config.programs / shards;
    let remainder = config.programs % shards;
    let mut specs = Vec::with_capacity(shards);
    let mut offset = 0;
    for index in 0..shards {
        let budget = base + usize::from(index < remainder);
        specs.push(ShardSpec { index, budget, offset, seed: shard_seed(config.seed, index) });
        offset += budget;
    }
    specs
}

/// Everything one executed shard contributes to the merged campaign.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ShardOutput {
    /// The plan this shard executed (validated on resume).
    pub spec: ShardSpec,
    /// Per-program records with *shard-local* indices.
    pub records: Vec<ProgramRecord>,
    /// Sources of the shard's valid programs, in generation order.
    pub sources: Vec<String>,
    /// Deduplicated sources of inconsistency-triggering programs.
    pub successful_sources: Vec<String>,
    /// The shard's aggregated differential-testing statistics.
    pub aggregates: Aggregates,
    /// Generation attempts that produced invalid programs.
    pub generation_failures: usize,
    /// LLM calls made by this shard.
    pub llm_calls: u64,
    /// Simulated LLM API latency accumulated by this shard.
    pub simulated_llm_time: Duration,
    /// Wall-clock time this shard actually spent computing.
    pub pipeline_time: Duration,
    /// Largest VM register file the shard's reused execution scratch
    /// prepared (`None` in shard files persisted before it was recorded;
    /// 0 for campaigns that never ran a virtual matrix).
    pub peak_regs: Option<usize>,
}

/// One shard lost from a merged campaign. Nothing produces these any
/// more: a shard that exhausts its dispatch budget fails the run with
/// [`OrchestratorError::Executor`](crate::OrchestratorError::Executor)
/// instead, so [`RunStats::failures`](crate::RunStats::failures) is
/// always empty. The type stays so existing readers of `RunStats` and
/// `summary.json` files that carry the key keep compiling and loading.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardFailureReport {
    /// The failed shard's index within its campaign plan.
    pub shard: usize,
    /// Dispatch attempts spent before the shard was given up.
    pub attempts: u32,
    /// The last dispatch's failure, verbatim.
    pub last_error: String,
}

/// Split one shard's budget into `epochs` consecutive segment lengths
/// (differing by at most one program, remainder on the leading epochs).
/// Zero-length segments are legal — a shard smaller than the epoch count
/// simply sits out the tail epochs at the barrier.
pub fn plan_epoch_segments(budget: usize, epochs: usize) -> Vec<usize> {
    let epochs = epochs.max(1);
    let base = budget / epochs;
    let remainder = budget % epochs;
    (0..epochs).map(|epoch| base + usize::from(epoch < remainder)).collect()
}

/// One shard of an epoch-sliced campaign: a [`CampaignRunner`] that runs
/// its budget in segments, pausing at epoch barriers where the
/// orchestrator collects the segment's newly found successful sources
/// (the *delta*), merges all shards' deltas, and injects the merged
/// deltas back before the next segment.
///
/// Running every segment back to back without injections is exactly
/// [`run_shard`] — which is why one exchange epoch reproduces the
/// no-exchange sharded output bit for bit.
pub struct ShardRunner {
    spec: ShardSpec,
    runner: CampaignRunner,
    next_local: usize,
    /// Successful-set length at the last barrier; everything above it was
    /// found by this shard during the current segment.
    watermark: usize,
}

impl ShardRunner {
    /// Start a fresh shard. Input sets derive from the parent campaign's
    /// seed (not the shard seed) so duplicates across shards share inputs
    /// and the cross-shard cache stays semantically transparent.
    pub fn new(config: &CampaignConfig, spec: ShardSpec, cache: Option<Arc<ResultCache>>) -> Self {
        let mut shard_config = config.clone();
        shard_config.programs = spec.budget;
        shard_config.seed = spec.seed;
        let mut runner = CampaignRunner::new(shard_config).with_input_seed(config.seed);
        if let Some(cache) = cache {
            runner = runner.with_cache(cache);
        }
        ShardRunner { spec, runner, next_local: 0, watermark: 0 }
    }

    /// Rebuild a shard paused at an epoch barrier from a checkpoint taken
    /// by [`ShardRunner::checkpoint`] there. Checkpoints are taken after
    /// pool injection, so the restored watermark (everything currently in
    /// the set) marks exactly where the next segment's delta begins.
    pub fn from_checkpoint(
        config: &CampaignConfig,
        spec: ShardSpec,
        cache: Option<Arc<ResultCache>>,
        checkpoint: RunnerCheckpoint,
    ) -> Self {
        let mut shard_config = config.clone();
        shard_config.programs = spec.budget;
        shard_config.seed = spec.seed;
        let next_local = checkpoint.records.len();
        let watermark = checkpoint.successful.sources.len();
        let mut runner = CampaignRunner::restore(shard_config, checkpoint);
        if let Some(cache) = cache {
            runner = runner.with_cache(cache);
        }
        ShardRunner { spec, runner, next_local, watermark }
    }

    /// Attach a telemetry lane handle (pure observation: results are
    /// bit-identical with or without it). Telemetry is never part of
    /// checkpoints, so restored shards must re-attach their lane —
    /// [`ShardRunner::from_checkpoint`] leaves it disabled.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.runner.set_telemetry(telemetry);
        self
    }

    pub fn spec(&self) -> ShardSpec {
        self.spec
    }

    /// Local index of the next program to run (== programs processed).
    pub fn programs_run(&self) -> usize {
        self.next_local
    }

    /// Run the next `count` programs (clamped to the remaining budget) and
    /// return the sources this shard newly found during the segment — the
    /// delta the barrier merges. `on_record` observes every processed
    /// program.
    pub fn run_segment(
        &mut self,
        count: usize,
        on_record: impl FnMut(&ProgramRecord),
    ) -> Vec<String> {
        self.run_segment_hashed(count, on_record).into_sources()
    }

    /// [`ShardRunner::run_segment`] returning the delta with the hashes
    /// `run_one` computed for it, so an in-process barrier merges and
    /// broadcasts it without hashing.
    pub(crate) fn run_segment_hashed(
        &mut self,
        count: usize,
        mut on_record: impl FnMut(&ProgramRecord),
    ) -> SuccessfulSet {
        let end = (self.next_local + count).min(self.spec.budget);
        for local in self.next_local..end {
            on_record(self.runner.run_one(local));
        }
        self.next_local = end;
        let delta = self.runner.successful_from(self.watermark);
        self.watermark = self.runner.successful_len();
        delta
    }

    /// Inject merged cross-shard finds into this shard's feedback set
    /// (structurally deduplicated by the hashes `pool` carries; the
    /// shard's own finds stay first, in their original order). Returns
    /// how many sources were new here.
    pub fn inject(&mut self, pool: &SuccessfulSet) -> usize {
        let added = self.runner.inject_successful(pool);
        self.watermark = self.runner.successful_len();
        added
    }

    /// Snapshot the paused runner for persistence (call at a barrier,
    /// after [`ShardRunner::inject`]).
    pub fn checkpoint(&self) -> RunnerCheckpoint {
        self.runner.checkpoint()
    }

    /// Finish the shard (all segments run) and assemble its output.
    pub fn finish(self) -> ShardOutput {
        debug_assert_eq!(self.next_local, self.spec.budget, "shard finished early");
        let peak_regs = self.runner.peak_register_file();
        let result = self.runner.finish();
        ShardOutput {
            spec: self.spec,
            records: result.records,
            sources: result.sources,
            successful_sources: result.successful_sources,
            aggregates: result.aggregates,
            generation_failures: result.generation_failures,
            llm_calls: result.llm_calls,
            simulated_llm_time: result.simulated_llm_time,
            pipeline_time: result.pipeline_time,
            peak_regs: Some(peak_regs),
        }
    }
}

/// Everything a shard needs besides its own plan: the parent campaign's
/// configuration plus the optional shared machinery (cache, telemetry
/// lane). One context serves any number of shards, and every attachment
/// is a pure observer — the shard's output is a function of
/// `(config, spec)` alone.
#[derive(Debug, Clone)]
pub struct ShardCtx<'a> {
    config: &'a CampaignConfig,
    cache: Option<Arc<ResultCache>>,
    telemetry: Telemetry,
}

impl<'a> ShardCtx<'a> {
    /// A bare context: no cache, telemetry disabled.
    pub fn new(config: &'a CampaignConfig) -> Self {
        ShardCtx { config, cache: None, telemetry: Telemetry::disabled() }
    }

    /// Share a cross-shard result cache (semantically transparent).
    pub fn with_cache(mut self, cache: Option<Arc<ResultCache>>) -> Self {
        self.cache = cache;
        self
    }

    /// Attach a telemetry lane handle (pure observation).
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.telemetry = telemetry;
        self
    }
}

/// Run one shard to completion without exchange barriers. Progress
/// reporting lives in the executor layer's `ProgressSink`; this entry
/// point is the one-shot form of driving a [`ShardRunner`] by hand.
pub fn run_shard(spec: &ShardSpec, ctx: &ShardCtx<'_>) -> ShardOutput {
    let mut runner = ShardRunner::new(ctx.config, *spec, ctx.cache.clone())
        .with_telemetry(ctx.telemetry.clone());
    runner.run_segment(spec.budget, |_| {});
    runner.finish()
}

/// Merge shard outputs (in shard order) into one campaign result.
/// Record indices are rebased from shard-local to global positions, and
/// the successful-source union is re-deduplicated (shards dedup only
/// internally, so the same program triggering in two shards would
/// otherwise appear twice — `CampaignResult::successful_sources`
/// promises structural uniqueness). Deterministic: depends only on the
/// outputs, not on how they were scheduled. `pipeline_time` becomes the
/// merged result's pipeline time.
pub fn merge_shards(
    config: &CampaignConfig,
    mut outputs: Vec<ShardOutput>,
    pipeline_time: Duration,
) -> CampaignResult {
    outputs.sort_by_key(|o| o.spec.index);
    let mut aggregates = Aggregates::new();
    let mut records = Vec::with_capacity(config.programs);
    let mut sources = Vec::new();
    let mut successful_sources: Vec<String> = Vec::new();
    let mut successful_seen = std::collections::HashSet::new();
    let mut generation_failures = 0;
    let mut llm_calls = 0;
    let mut simulated_llm_time = Duration::ZERO;
    for output in outputs {
        aggregates.merge(&output.aggregates);
        let offset = output.spec.offset;
        records.extend(output.records.into_iter().map(|mut r| {
            r.index += offset;
            r
        }));
        sources.extend(output.sources);
        for source in output.successful_sources {
            if successful_seen.insert(source_hash(&source)) {
                successful_sources.push(source);
            }
        }
        generation_failures += output.generation_failures;
        llm_calls += output.llm_calls;
        simulated_llm_time += output.simulated_llm_time;
    }
    CampaignResult {
        config: config.clone(),
        aggregates,
        records,
        sources,
        successful_sources,
        generation_failures,
        llm_calls,
        simulated_llm_time,
        pipeline_time,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm4fp::ApproachKind;

    #[test]
    fn plans_split_budgets_evenly_with_leading_remainder() {
        let config = CampaignConfig::new(ApproachKind::Varity).with_budget(10).with_seed(42);
        let specs = plan_shards(&config, 3);
        assert_eq!(specs.len(), 3);
        assert_eq!(specs.iter().map(|s| s.budget).collect::<Vec<_>>(), vec![4, 3, 3]);
        assert_eq!(specs.iter().map(|s| s.offset).collect::<Vec<_>>(), vec![0, 4, 7]);
        assert_eq!(
            specs.iter().map(|s| s.seed).collect::<Vec<_>>(),
            vec![shard_seed(42, 0), shard_seed(42, 1), shard_seed(42, 2)]
        );
        assert_eq!(specs.iter().map(|s| s.budget).sum::<usize>(), 10);
    }

    #[test]
    fn shard_seeds_never_collide_across_nearby_campaign_seeds() {
        // Plain `seed ^ index` would make campaign 43's shard 1 replay
        // campaign 42's shard 0 stream; the mixed derivation must not.
        assert_eq!(shard_seed(42, 0), 42, "K = 1 contract: shard 0 uses the campaign seed");
        let mut seen = std::collections::HashSet::new();
        for campaign_seed in 0u64..64 {
            for index in 0..64 {
                assert!(
                    seen.insert(shard_seed(campaign_seed, index)),
                    "collision at seed {campaign_seed} shard {index}"
                );
            }
        }
    }

    #[test]
    fn plans_clamp_to_sane_shard_counts() {
        let config = CampaignConfig::new(ApproachKind::Varity).with_budget(3);
        assert_eq!(plan_shards(&config, 0).len(), 1);
        // Never more shards than programs.
        assert_eq!(plan_shards(&config, 8).len(), 3);
    }

    #[test]
    fn shard_zero_runs_the_sequential_stream() {
        let config =
            CampaignConfig::new(ApproachKind::Varity).with_budget(8).with_seed(9).with_threads(1);
        let specs = plan_shards(&config, 1);
        let output = run_shard(&specs[0], &ShardCtx::new(&config));
        let sequential = llm4fp::Campaign::new(config.clone()).run();
        assert_eq!(output.records, sequential.records);
        assert_eq!(output.sources, sequential.sources);
        assert_eq!(output.aggregates, sequential.aggregates);
    }

    #[test]
    fn epoch_segments_tile_the_budget() {
        assert_eq!(plan_epoch_segments(10, 4), vec![3, 3, 2, 2]);
        assert_eq!(plan_epoch_segments(3, 4), vec![1, 1, 1, 0]);
        assert_eq!(plan_epoch_segments(8, 1), vec![8]);
        assert_eq!(plan_epoch_segments(0, 3), vec![0, 0, 0]);
        for (budget, epochs) in [(103, 7), (5, 5), (12, 1)] {
            assert_eq!(plan_epoch_segments(budget, epochs).iter().sum::<usize>(), budget);
        }
    }

    /// Field-wise equality minus `pipeline_time` (wall clocks never
    /// reproduce across runs).
    fn assert_outputs_identical(a: &ShardOutput, b: &ShardOutput) {
        assert_eq!(a.spec, b.spec);
        assert_eq!(a.records, b.records);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.successful_sources, b.successful_sources);
        assert_eq!(a.aggregates, b.aggregates);
        assert_eq!(a.generation_failures, b.generation_failures);
        assert_eq!(a.llm_calls, b.llm_calls);
        assert_eq!(a.simulated_llm_time, b.simulated_llm_time);
    }

    #[test]
    fn segmented_execution_equals_one_shot_run_shard() {
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(20).with_seed(6).with_threads(1);
        let spec = plan_shards(&config, 2)[1];
        let oneshot = run_shard(&spec, &ShardCtx::new(&config));
        let mut runner = ShardRunner::new(&config, spec, None);
        for segment in plan_epoch_segments(spec.budget, 4) {
            runner.run_segment(segment, |_| {});
        }
        assert_outputs_identical(&runner.finish(), &oneshot);
    }

    #[test]
    fn checkpointed_shard_runners_resume_bit_identically() {
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(24).with_seed(31).with_threads(1);
        let spec = plan_shards(&config, 2)[0];
        let mut pool = SuccessfulSet::new();
        pool.merge_sources(&[
            "void compute(double z) { comp = z * z; }".to_string(),
            "bogus".to_string(),
        ]);

        let mut reference = ShardRunner::new(&config, spec, None);
        reference.run_segment(6, |_| {});
        reference.inject(&pool);
        let checkpoint = reference.checkpoint();
        reference.run_segment(spec.budget, |_| {});
        let reference = reference.finish();

        let mut restored = ShardRunner::from_checkpoint(&config, spec, None, checkpoint);
        assert_eq!(restored.programs_run(), 6);
        restored.run_segment(spec.budget, |_| {});
        assert_outputs_identical(&restored.finish(), &reference);
    }

    #[test]
    fn merge_rebases_record_indices() {
        let config =
            CampaignConfig::new(ApproachKind::Varity).with_budget(9).with_seed(4).with_threads(1);
        let outputs: Vec<ShardOutput> = plan_shards(&config, 3)
            .iter()
            .map(|spec| run_shard(spec, &ShardCtx::new(&config)))
            .collect();
        let merged = merge_shards(&config, outputs, Duration::ZERO);
        assert_eq!(merged.records.len(), 9);
        for (i, record) in merged.records.iter().enumerate() {
            assert_eq!(record.index, i);
        }
        assert_eq!(merged.aggregates.programs, 9);
    }
}
