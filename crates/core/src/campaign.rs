//! The campaign loop: Figure 1 of the paper, end to end.
//!
//! Each iteration selects a generation strategy, obtains a candidate program
//! (from the Varity generator or from the LLM client), pairs it with a fresh
//! input set, pushes it through the compilation driver and differential
//! tester, folds the outcome into the aggregates, and — when the program
//! triggered at least one inconsistency — adds it to the successful set that
//! Feedback-Based Mutation draws from.
//!
//! The loop is factored into a reusable [`CampaignRunner`] exposing a
//! per-program [`CampaignRunner::run_one`] stage. [`Campaign::run`] drives
//! it sequentially; `llm4fp-orchestrator` drives many runners concurrently
//! (one per shard) and merges their results. Two further capabilities make
//! the runner a *segmented* engine: [`CampaignRunner::checkpoint`] /
//! [`CampaignRunner::restore`] pause and resume a runner between programs
//! with bit-identical continuation (all RNG streams are snapshotted), and
//! [`CampaignRunner::inject_successful`] merges another shard's finds into
//! this runner's feedback pool — the two primitives the orchestrator's
//! epoch-based cross-shard feedback exchange is built from.
//!
//! ## RNG-stream contracts
//!
//! Determinism rests on two derivation rules:
//!
//! * every stateful component derives its stream from the campaign seed
//!   (`seed ^ 0x5eed_000N`), so a campaign is a pure function of its
//!   configuration;
//! * each program's *input set* is derived from the campaign seed XOR the
//!   program's structural hash — not from a shared sequential stream — so
//!   structurally identical programs always receive identical inputs. This
//!   is what makes the orchestrator's result cache semantically
//!   transparent: re-testing a duplicate program is guaranteed to
//!   reproduce the cached bits.

use std::collections::HashSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

use rand::prelude::*;
use serde::{Deserialize, Serialize};

use llm4fp_difftest::{
    record_outcome_metrics, Aggregates, CachedDiff, DiffTester, ExecBackend, ExecEngine,
    MatrixScratch, ResultCache,
};
use llm4fp_fpir::{hash_id, source_hash, to_compute_source, validate, Program};
use llm4fp_generator::{
    llm::SimulatedLlmConfig, InputGenerator, LlmClient, PromptBuilder, SimulatedLlm, Strategy,
    VarityGenerator,
};
use llm4fp_metrics::DiversityReport;
use llm4fp_telemetry::{keys, Telemetry};

use crate::config::{ApproachKind, BackendSpec, CampaignConfig};

/// How one program of the campaign was produced and what it did.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProgramRecord {
    /// Sequence number within the campaign (0-based).
    pub index: usize,
    /// Structural program id (empty for generation failures).
    pub program_id: String,
    /// Strategy that produced the program.
    pub strategy: String,
    /// Whether generation produced a valid program at all.
    pub valid: bool,
    /// Number of inconsistencies this program triggered.
    pub inconsistencies: usize,
    /// Whether the program entered the successful set.
    pub successful: bool,
}

/// Everything a finished campaign reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CampaignResult {
    /// The configuration that produced this result.
    pub config: CampaignConfig,
    /// Aggregated differential-testing statistics (Tables 2–5, Figure 3).
    pub aggregates: Aggregates,
    /// Per-program records, in generation order.
    pub records: Vec<ProgramRecord>,
    /// Sources of all valid generated programs (used for diversity metrics
    /// and for EXPERIMENTS.md artifacts).
    pub sources: Vec<String>,
    /// Sources of the programs that triggered inconsistencies
    /// (structurally deduplicated).
    pub successful_sources: Vec<String>,
    /// Number of generation attempts that produced invalid programs.
    pub generation_failures: usize,
    /// Number of LLM calls made (0 for Varity).
    pub llm_calls: u64,
    /// Total simulated LLM API latency (what the wall clock would have spent
    /// waiting on the API; reported, not slept).
    pub simulated_llm_time: Duration,
    /// Wall-clock time actually spent generating, compiling and executing
    /// programs. A sharded run merges the sum of its shards' pipeline
    /// times (work done, not elapsed time), so at one shard this is what
    /// [`Campaign::run`] measures.
    pub pipeline_time: Duration,
}

impl CampaignResult {
    /// The headline inconsistency rate (Table 2).
    pub fn inconsistency_rate(&self) -> f64 {
        self.aggregates.inconsistency_rate()
    }

    /// Total number of inconsistencies (Table 2).
    pub fn inconsistencies(&self) -> u64 {
        self.aggregates.inconsistencies
    }

    /// Total reported time cost: pipeline time plus the latency the LLM API
    /// calls would have added (Table 2's time-cost column).
    pub fn total_time_cost(&self) -> Duration {
        self.pipeline_time + self.simulated_llm_time
    }

    /// Measure corpus diversity (average pairwise CodeBLEU + clone report).
    pub fn measure_diversity(&self) -> DiversityReport {
        DiversityReport::measure(&self.sources, self.config.max_codebleu_pairs)
    }
}

/// The successful-program set of the feedback loop. Insertion
/// deduplicates on the source text's structural hash: Feedback-Based
/// Mutation repeatedly re-triggers inconsistencies with the same program,
/// and without deduplication those copies pile up and bias subsequent
/// seed selection toward already-exploited programs.
///
/// The set distinguishes *own* finds (programs this campaign observed
/// triggering an inconsistency, added by [`SuccessfulSet::insert`]) from
/// *injected* entries (programs another shard found, merged in by
/// [`SuccessfulSet::merge`] at a cross-shard exchange barrier). Both feed
/// seed selection, but only own finds are reported in
/// [`CampaignResult::successful_sources`] — injected entries are reported
/// by the shard that found them, which keeps the merged campaign result
/// identical whether or not exchange ran.
///
/// Each entry keeps the structural hash it was deduplicated by, so sets
/// merge into each other by hash: an own find carries the hash
/// [`CampaignRunner::run_one`] computed when it tested the program, and
/// no exchange barrier hashes a source again.
///
/// Entries hold their text as a shared `Arc<str>`: a merge, a tail, an
/// injection and a snapshot clone handles, never text, so K shards
/// exchanging one pool in process hold one copy of each pooled program.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct SuccessfulSet {
    sources: Vec<Arc<str>>,
    /// `source_hash` of each entry, parallel to `sources`.
    hashes: Vec<u64>,
    seen: HashSet<u64>,
    own: Vec<bool>,
}

/// Serializable image of a [`SuccessfulSet`]: each entry's text,
/// structural hash and own flag, as three parallel lists.
///
/// In memory a snapshot is self-contained. Whoever writes one to the wire
/// or to disk may leave out the texts its reader already holds
/// ([`SuccessfulSetSnapshot::leave_out`]): a left-out entry keeps its hash
/// and carries the empty text, which no real source is. The reader fills
/// each one back by hash ([`SuccessfulSetSnapshot::fill`]) before it
/// restores. [`SuccessfulSet::restore`] takes the carried hashes as they
/// are and never hashes a source.
#[derive(Debug, Default, Clone, PartialEq, Serialize, Deserialize)]
pub struct SuccessfulSetSnapshot {
    pub sources: Vec<Arc<str>>,
    pub hashes: Vec<u64>,
    pub own: Vec<bool>,
}

impl SuccessfulSetSnapshot {
    /// Replace the text of every entry whose hash `held` names by the
    /// empty text (the hash and own flag stay).
    pub fn leave_out(&mut self, held: impl Fn(u64) -> bool) {
        let empty: Arc<str> = Arc::from("");
        for (source, &hash) in self.sources.iter_mut().zip(&self.hashes) {
            if held(hash) {
                *source = Arc::clone(&empty);
            }
        }
    }

    /// Fill every left-out text by its hash from `store`. Fails, naming
    /// the problem, when the three lists differ in length or `store`
    /// lacks a left-out hash; the snapshot is then unusable.
    pub fn fill(&mut self, store: impl Fn(u64) -> Option<Arc<str>>) -> Result<(), String> {
        if self.hashes.len() != self.sources.len() || self.own.len() != self.sources.len() {
            return Err(format!(
                "ragged pool: {} texts, {} hashes, {} own flags",
                self.sources.len(),
                self.hashes.len(),
                self.own.len()
            ));
        }
        for (source, &hash) in self.sources.iter_mut().zip(&self.hashes) {
            if source.is_empty() {
                *source =
                    store(hash).ok_or_else(|| format!("pool text {hash:016x} is not held"))?;
            }
        }
        Ok(())
    }
}

impl SuccessfulSet {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert an own find, returning `true` when it was structurally new.
    pub fn insert(&mut self, source: &str) -> bool {
        self.insert_hashed(source_hash(source), source)
    }

    /// [`SuccessfulSet::insert`] for a caller that already holds
    /// `source_hash(source)`.
    pub(crate) fn insert_hashed(&mut self, hash: u64, source: &str) -> bool {
        self.push(hash, || Arc::from(source), true)
    }

    /// Append the text `source` makes under `hash` unless the set already
    /// holds that structure; returns whether it was new.
    fn push(&mut self, hash: u64, source: impl FnOnce() -> Arc<str>, own: bool) -> bool {
        if !self.seen.insert(hash) {
            return false;
        }
        self.sources.push(source());
        self.hashes.push(hash);
        self.own.push(own);
        true
    }

    /// Merge externally found sources (in their given order), returning
    /// the number that were structurally new. Each source is hashed once.
    /// Merging is associative, commutative up to ordering, and idempotent
    /// — the properties the exchange barrier's shard-order merge relies
    /// on.
    pub fn merge_sources<S: AsRef<str>>(&mut self, sources: &[S]) -> usize {
        sources
            .iter()
            .map(AsRef::as_ref)
            .filter(|source| self.push(source_hash(source), || Arc::from(*source), false))
            .count()
    }

    /// Merge another set's entries (own and injected alike) as injected
    /// entries of this set, by the hashes `other` already holds. Same
    /// result as `merge_sources(other.sources())`, without hashing or
    /// copying text.
    pub fn merge(&mut self, other: &SuccessfulSet) -> usize {
        other
            .hashes
            .iter()
            .zip(&other.sources)
            .filter(|(&hash, source)| self.push(hash, || Arc::clone(source), false))
            .count()
    }

    /// The entries from position `start` on, as a set of their own that
    /// keeps their hashes and own flags.
    pub(crate) fn tail(&self, start: usize) -> SuccessfulSet {
        let start = start.min(self.len());
        let hashes = self.hashes[start..].to_vec();
        SuccessfulSet {
            sources: self.sources[start..].to_vec(),
            seen: hashes.iter().copied().collect(),
            hashes,
            own: self.own[start..].to_vec(),
        }
    }

    /// The sources, in insertion order, as owned strings.
    pub fn into_sources(self) -> Vec<String> {
        self.sources.iter().map(|source| source.to_string()).collect()
    }

    /// All sources (own + injected) in insertion order — the pool seed
    /// selection draws from.
    pub fn sources(&self) -> &[Arc<str>] {
        &self.sources
    }

    /// The structural hash of each entry of [`SuccessfulSet::sources`].
    pub fn hashes(&self) -> &[u64] {
        &self.hashes
    }

    /// The sources this set inserted itself, in insertion order.
    pub fn own_sources(&self) -> Vec<String> {
        self.sources
            .iter()
            .zip(&self.own)
            .filter(|(_, own)| **own)
            .map(|(s, _)| s.to_string())
            .collect()
    }

    pub fn len(&self) -> usize {
        self.sources.len()
    }

    pub fn is_empty(&self) -> bool {
        self.sources.is_empty()
    }

    /// Structural membership test.
    pub fn contains(&self, source: &str) -> bool {
        self.seen.contains(&source_hash(source))
    }

    /// Serializable image of the set; [`SuccessfulSet::restore`] inverts.
    pub fn snapshot(&self) -> SuccessfulSetSnapshot {
        SuccessfulSetSnapshot {
            sources: self.sources.clone(),
            hashes: self.hashes.clone(),
            own: self.own.clone(),
        }
    }

    /// [`SuccessfulSet::snapshot`] that moves the entries instead of
    /// copying them.
    fn into_snapshot(self) -> SuccessfulSetSnapshot {
        SuccessfulSetSnapshot { sources: self.sources, hashes: self.hashes, own: self.own }
    }

    /// Rebuild a set from a self-contained snapshot (restores insertion
    /// order, own flags and the structural-hash index) by the hashes it
    /// carries. Snapshots read from outside the process pass
    /// [`SuccessfulSetSnapshot::fill`] first, which refuses ragged ones.
    pub fn restore(snapshot: SuccessfulSetSnapshot) -> Self {
        let SuccessfulSetSnapshot { sources, hashes, own } = snapshot;
        debug_assert!(sources.len() == hashes.len() && own.len() == hashes.len());
        let seen = hashes.iter().copied().collect();
        SuccessfulSet { sources, hashes, seen, own }
    }
}

/// The reusable per-program campaign engine. Create one with
/// [`CampaignRunner::new`], call [`CampaignRunner::run_one`] once per
/// program of the budget (in order), then [`CampaignRunner::finish`].
pub struct CampaignRunner {
    config: CampaignConfig,
    rng: StdRng,
    varity: VarityGenerator,
    llm: SimulatedLlm,
    prompt_builder: PromptBuilder,
    tester: DiffTester,
    comparisons_per_program: usize,
    input_seed: u64,
    cache: Option<Arc<ResultCache>>,
    /// The feedback loop's successful set: what Feedback-Based Mutation
    /// draws its seeds from.
    successful: SuccessfulSet,
    /// Seal + execution scratch reused across every program this runner
    /// tests (per-matrix construction was the last allocation hot spot of
    /// the shard worker loop). Not part of checkpoints — pure perf state.
    scratch: MatrixScratch,
    aggregates: Aggregates,
    records: Vec<ProgramRecord>,
    sources: Vec<String>,
    generation_failures: usize,
    simulated_llm_time: Duration,
    /// Wall-clock time spent inside [`CampaignRunner::run_one`] so far.
    /// Accumulated per program — not runner lifetime — so a runner paused
    /// at an exchange barrier (or idle while the pool serves other
    /// shards) doesn't book waiting time as pipeline cost, and a restored
    /// runner continues the count where the checkpoint left it.
    pipeline_time: Duration,
    /// Telemetry handle (disabled by default). Pure observation — never
    /// part of checkpoints, never consulted by the campaign logic — so
    /// results and resume streams are bit-identical with it on or off.
    telemetry: Telemetry,
}

/// Serializable image of a [`CampaignRunner`] paused between programs.
///
/// A checkpoint captures everything that is not a pure function of the
/// [`CampaignConfig`]: the three RNG streams (campaign, Varity, LLM), the
/// LLM call counter, the derived input seed, the successful set, and the
/// accumulated outputs. [`CampaignRunner::restore`] rebuilds a runner that
/// continues the exact program stream the checkpointed one would have run
/// — the primitive behind epoch-boundary pause/resume in the orchestrator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunnerCheckpoint {
    pub rng: Vec<u64>,
    pub varity_rng: Vec<u64>,
    pub llm_rng: Vec<u64>,
    pub llm_calls: u64,
    pub input_seed: u64,
    pub successful: SuccessfulSetSnapshot,
    pub aggregates: Aggregates,
    pub records: Vec<ProgramRecord>,
    pub sources: Vec<String>,
    pub generation_failures: usize,
    pub simulated_llm_time: Duration,
    pub pipeline_time: Duration,
}

impl RunnerCheckpoint {
    /// Merge another set's entries into the checkpointed feedback pool,
    /// exactly as [`CampaignRunner::inject_successful`] would on a live
    /// runner: structurally deduplicated by the hashes `delta` carries,
    /// order preserved, injected entries flagged as not-own. Returns how
    /// many were new. The pool is rebuilt from the hashes it carries, so
    /// no source is hashed and no text is copied.
    ///
    /// Injection and checkpointing commute — the pool merge touches no
    /// RNG stream and no accumulated output — so a coordinator holding a
    /// checkpoint can perform the exchange-barrier injection itself and
    /// dispatch the updated checkpoint to whichever worker process (or
    /// machine) runs the next epoch segment. A runner restored from the
    /// result is bit-identical to one that ran [`Self`]-side injection
    /// before being checkpointed.
    pub fn inject_successful(&mut self, delta: &SuccessfulSet) -> usize {
        let mut set = SuccessfulSet::restore(std::mem::take(&mut self.successful));
        let added = set.merge(delta);
        self.successful = set.into_snapshot();
        added
    }

    /// The one check every reader of an untrusted checkpoint (the run
    /// dir's and the worker's) makes before [`CampaignRunner::restore`]:
    /// each RNG state must be the four words it was written as. A damaged
    /// state is refused here, never padded into other bits.
    pub fn validate(&self) -> Result<(), String> {
        let rngs = [&self.rng, &self.varity_rng, &self.llm_rng];
        if rngs.iter().any(|words| words.len() != 4) {
            return Err("damaged RNG state".into());
        }
        Ok(())
    }
}

impl CampaignRunner {
    /// Build a runner for one campaign configuration. Panics on an invalid
    /// configuration (mirroring [`Campaign::run`]).
    pub fn new(config: CampaignConfig) -> Self {
        config.validate().expect("invalid campaign configuration");
        let seed = config.seed;
        let mut tester = DiffTester::with_matrix(config.compilers.clone(), config.levels.clone());
        if let BackendSpec::External(spec) = &config.backend {
            tester = tester.with_backend(ExecBackend::External(Arc::new(spec.toolchain())));
        }
        let comparisons_per_program = tester.comparisons_per_program();
        CampaignRunner {
            rng: StdRng::seed_from_u64(seed),
            varity: VarityGenerator::new(seed ^ 0x5eed_0001),
            llm: SimulatedLlm::with_config(
                seed ^ 0x5eed_0002,
                SimulatedLlmConfig {
                    sampling: config.sampling,
                    direct_prompt_invalid_rate: config.direct_prompt_invalid_rate,
                    ..SimulatedLlmConfig::default()
                },
            ),
            prompt_builder: PromptBuilder::new(config.precision),
            tester,
            comparisons_per_program,
            input_seed: seed ^ 0x5eed_0003,
            cache: None,
            successful: SuccessfulSet::default(),
            scratch: MatrixScratch::new(),
            aggregates: Aggregates::new(),
            records: Vec::with_capacity(config.programs),
            sources: Vec::new(),
            generation_failures: 0,
            simulated_llm_time: Duration::ZERO,
            pipeline_time: Duration::ZERO,
            telemetry: Telemetry::disabled(),
            config,
        }
    }

    /// Snapshot this runner between programs. Restoring the checkpoint
    /// (with the same configuration) continues the exact same stream; see
    /// [`RunnerCheckpoint`].
    pub fn checkpoint(&self) -> RunnerCheckpoint {
        let (llm_rng, llm_calls) = self.llm.state();
        RunnerCheckpoint {
            rng: self.rng.state().to_vec(),
            varity_rng: self.varity.rng_state().to_vec(),
            llm_rng: llm_rng.to_vec(),
            llm_calls,
            input_seed: self.input_seed,
            successful: self.successful.snapshot(),
            aggregates: self.aggregates.clone(),
            records: self.records.clone(),
            sources: self.sources.clone(),
            generation_failures: self.generation_failures,
            simulated_llm_time: self.simulated_llm_time,
            pipeline_time: self.pipeline_time,
        }
    }

    /// [`CampaignRunner::checkpoint`] that moves the runner's history
    /// (records, sources, feedback pool) into the checkpoint instead of
    /// copying it — the form a runner paused at every barrier takes.
    pub fn into_checkpoint(mut self) -> RunnerCheckpoint {
        let records = std::mem::take(&mut self.records);
        let sources = std::mem::take(&mut self.sources);
        let successful = std::mem::take(&mut self.successful).into_snapshot();
        RunnerCheckpoint { records, sources, successful, ..self.checkpoint() }
    }

    /// Rebuild a runner from a checkpoint taken with the same
    /// configuration. The restored runner's subsequent [`Self::run_one`]
    /// calls, final [`Self::finish`] result, and further checkpoints are
    /// bit-identical to the uninterrupted runner's (pipeline time excepted
    /// — wall clocks are not replayable).
    ///
    /// Panics when an RNG state is not four words. The checkpoint readers
    /// (the run dir's and the worker's) refuse such a checkpoint first,
    /// through [`RunnerCheckpoint::validate`].
    pub fn restore(config: CampaignConfig, checkpoint: RunnerCheckpoint) -> Self {
        let mut runner = CampaignRunner::new(config);
        runner.rng = StdRng::from_state(rng_words(&checkpoint.rng));
        runner.varity.restore_rng_state(rng_words(&checkpoint.varity_rng));
        runner.llm.restore_state(rng_words(&checkpoint.llm_rng), checkpoint.llm_calls);
        runner.input_seed = checkpoint.input_seed;
        runner.successful = SuccessfulSet::restore(checkpoint.successful);
        runner.aggregates = checkpoint.aggregates;
        runner.records = checkpoint.records;
        runner.sources = checkpoint.sources;
        runner.generation_failures = checkpoint.generation_failures;
        runner.simulated_llm_time = checkpoint.simulated_llm_time;
        runner.pipeline_time = checkpoint.pipeline_time;
        runner
    }

    /// Number of entries (own + injected) in the successful set.
    pub fn successful_len(&self) -> usize {
        self.successful.len()
    }

    /// The successful set's entries from position `start` on, with their
    /// hashes — the exchange barrier reads each epoch's newly found
    /// sources this way (injected entries sit below the caller's
    /// watermark by construction).
    pub fn successful_from(&self, start: usize) -> SuccessfulSet {
        self.successful.tail(start)
    }

    /// Merge another set's entries into this runner's feedback pool
    /// (structurally deduplicated by the hashes `delta` carries, order
    /// preserved). Returns how many were new. Subsequent feedback
    /// mutation draws from the union.
    pub fn inject_successful(&mut self, delta: &SuccessfulSet) -> usize {
        self.successful.merge(delta)
    }

    /// Share a differential-testing result cache with this runner.
    /// Caching is semantically transparent (see the module docs on input
    /// derivation), so results are bit-identical with or without it. Keys
    /// are scoped by everything besides the program that determines its
    /// result, so any runners may share one cache.
    pub fn with_cache(mut self, cache: Arc<ResultCache>) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Run differential tests on the reference tree-walking interpreter
    /// instead of the sealed bytecode VM. The two engines are pinned
    /// bit-identical, so campaign results do not change — this knob exists
    /// for A/B benchmarking and for re-verifying the pin at campaign scale.
    /// (A virtual-backend knob: it overrides any external backend.)
    pub fn with_reference_execution(mut self) -> Self {
        self.tester = self.tester.clone().with_engine(ExecEngine::Reference);
        self
    }

    /// Attach a telemetry handle (the orchestrator passes this runner's
    /// shard-lane handle). The handle reaches the differential tester
    /// too, so seal/execute spans and compute-level counters flow into
    /// the same lane. Telemetry is pure observation: it is absent from
    /// checkpoints and never alters RNG draws or results.
    pub fn with_telemetry(mut self, telemetry: Telemetry) -> Self {
        self.set_telemetry(telemetry);
        self
    }

    /// In-place form of [`CampaignRunner::with_telemetry`].
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.tester.telemetry = telemetry.clone();
        self.telemetry = telemetry;
    }

    /// Override the seed that program input sets are derived from.
    ///
    /// The orchestrator runs each shard with a derived campaign seed
    /// (`parent_seed ^ shard_index`) but passes the *parent* seed here for
    /// every shard, so a program duplicated across shards receives
    /// identical inputs — the property that keeps a cross-shard result
    /// cache semantically transparent. (For shard 0 the derived and parent
    /// seeds coincide, preserving exact equality with the sequential
    /// driver.)
    pub fn with_input_seed(mut self, seed: u64) -> Self {
        self.input_seed = seed ^ 0x5eed_0003;
        self
    }

    /// The number of pairwise comparisons each program contributes to the
    /// inconsistency-rate denominator.
    pub fn comparisons_per_program(&self) -> usize {
        self.comparisons_per_program
    }

    /// Number of programs processed so far.
    pub fn programs_run(&self) -> usize {
        self.records.len()
    }

    /// Largest VM register file any sealed program prepared against this
    /// runner's reused execution scratch (0 until a virtual matrix ran —
    /// e.g. on the external backend). The orchestrator reports the
    /// per-run peak in `summary.json`.
    pub fn peak_register_file(&self) -> usize {
        self.scratch.peak_regs()
    }

    /// Run one iteration of the campaign loop: generate a candidate,
    /// differential-test it, fold the outcome into the aggregates and the
    /// feedback set. Returns the record of the processed program.
    pub fn run_one(&mut self, index: usize) -> &ProgramRecord {
        let started = Instant::now();
        let _span = self.telemetry.span(keys::SPAN_PROGRAM);
        let (strategy_label, program) = self.generate_one();

        let Some(program) = program else {
            self.generation_failures += 1;
            self.telemetry.add(keys::GENERATION_FAILURES, 1);
            self.aggregates.add_result(
                &llm4fp_difftest::ProgramDiffResult {
                    program_id: String::new(),
                    outcomes: Vec::new(),
                    records: Vec::new(),
                    comparisons_performed: 0,
                },
                self.comparisons_per_program,
            );
            self.records.push(ProgramRecord {
                index,
                program_id: String::new(),
                strategy: strategy_label,
                valid: false,
                inconsistencies: 0,
                successful: false,
            });
            self.pipeline_time += started.elapsed();
            return self.records.last().expect("just pushed");
        };

        // One canonical print and one hash per program: the hash seeds the
        // inputs and dedups the successful set, and its id keys the cache.
        let source = to_compute_source(&program);
        let hash = source_hash(&source);
        let id = hash_id(hash);
        let CachedDiff { result, baseline } = self.test_program(&program, hash, &id);
        // Campaign-level counters record what the program *contributes*
        // (cached or computed alike), which keeps them deterministic even
        // though cache hit/miss attribution is racy across workers.
        record_outcome_metrics(&self.telemetry, &result);
        self.aggregates.add_result(&result, self.comparisons_per_program);
        self.aggregates.add_baseline_comparisons(&baseline);

        let triggered = result.triggered_inconsistency();
        if triggered {
            self.successful.insert_hashed(hash, &source);
        }
        self.records.push(ProgramRecord {
            index,
            program_id: id,
            strategy: strategy_label,
            valid: true,
            inconsistencies: result.records.len(),
            successful: triggered,
        });
        self.sources.push(source);
        self.pipeline_time += started.elapsed();
        self.records.last().expect("just pushed")
    }

    /// Differential-test one program, consulting the shared cache when one
    /// is attached. A result is a pure function of the program and of what
    /// the key's scope names: the backend fingerprint, the input seed, the
    /// precision and the compiler × level matrix. So a hit is bit-identical
    /// to recomputation, and runners that differ in any of these never
    /// serve each other. On the external backend a hit skips every process
    /// spawn of the duplicate's matrix.
    fn test_program(&mut self, program: &Program, hash: u64, id: &str) -> CachedDiff {
        let key = self.cache.as_ref().map(|_| {
            let scope = format!(
                "{}/{:016x}/{:?}/{:?}x{:?}",
                self.tester.backend_fingerprint(),
                self.input_seed,
                self.config.precision,
                self.config.compilers,
                self.config.levels
            );
            ResultCache::scoped_key(&scope, id)
        });
        if let (Some(cache), Some(key)) = (&self.cache, &key) {
            if let Some(cached) = cache.get(key) {
                return cached;
            }
        }
        let inputs = InputGenerator::new(self.input_seed ^ hash)
            .generate(program)
            .truncated(self.config.precision);
        let result = self.tester.run_hashed(program, hash, &inputs, &mut self.scratch);
        let baseline = self.tester.compare_vs_baseline(&result.outcomes);
        let computed = CachedDiff { result, baseline };
        if let (Some(cache), Some(key)) = (&self.cache, key) {
            cache.insert(key, computed.clone());
        }
        computed
    }

    /// Consume the runner and assemble the campaign result. Only the
    /// runner's *own* successful finds are reported — sources injected
    /// from other shards at exchange barriers are reported by the shard
    /// that found them.
    pub fn finish(self) -> CampaignResult {
        CampaignResult {
            config: self.config,
            aggregates: self.aggregates,
            records: self.records,
            sources: self.sources,
            successful_sources: self.successful.own_sources(),
            generation_failures: self.generation_failures,
            llm_calls: self.llm.calls(),
            simulated_llm_time: self.simulated_llm_time,
            pipeline_time: self.pipeline_time,
        }
    }

    /// Produce one candidate program according to the configured approach.
    /// Returns the strategy label and `None` when generation failed
    /// (unparseable or invalid LLM output).
    fn generate_one(&mut self) -> (String, Option<Program>) {
        let (strategy, prompt) = match self.config.approach {
            ApproachKind::Varity => return ("varity".to_string(), Some(self.varity.generate())),
            ApproachKind::DirectPrompt => {
                (Strategy::DirectPrompt, self.prompt_builder.direct_prompt())
            }
            ApproachKind::GrammarGuided => {
                (Strategy::GrammarBased, self.prompt_builder.grammar_based())
            }
            ApproachKind::Llm4Fp => {
                // The first program always comes from Grammar-Based
                // Generation; afterwards the strategy is drawn with the
                // configured probability (0.3 grammar / 0.7 feedback).
                let pool = self.successful.sources();
                let seed = if pool.is_empty() || self.rng.gen_bool(self.config.grammar_probability)
                {
                    None
                } else {
                    pool.choose(&mut self.rng)
                };
                match seed {
                    None => (Strategy::GrammarBased, self.prompt_builder.grammar_based()),
                    Some(seed) => {
                        (Strategy::FeedbackMutation, self.prompt_builder.feedback_mutation(seed))
                    }
                }
            }
        };
        let response = self.llm.generate(&prompt);
        self.simulated_llm_time += response.simulated_latency;
        (strategy.name().to_string(), parse_valid(&response.source))
    }
}

/// The campaign driver.
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    pub fn new(config: CampaignConfig) -> Self {
        Campaign { config }
    }

    /// Run the whole campaign sequentially. Deterministic for a given
    /// configuration.
    pub fn run(&self) -> CampaignResult {
        let mut runner = CampaignRunner::new(self.config.clone());
        for index in 0..self.config.programs {
            runner.run_one(index);
        }
        runner.finish()
    }
}

/// A checkpointed RNG state (serialized as a `Vec` because the vendored
/// serde shim has no fixed-size-array support) as the four xoshiro words.
/// Panics on any other length: a padded state would resume to other bits.
fn rng_words(words: &[u64]) -> [u64; 4] {
    words.try_into().expect("a checkpointed RNG state is four words")
}

fn parse_valid(source: &str) -> Option<Program> {
    let program = llm4fp_fpir::parse_compute(source).ok()?;
    if validate(&program).is_empty() {
        Some(program)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small(approach: ApproachKind, budget: usize) -> CampaignResult {
        Campaign::new(
            CampaignConfig::new(approach).with_budget(budget).with_seed(11).with_threads(2),
        )
        .run()
    }

    #[test]
    fn varity_campaign_runs_and_accounts_every_program() {
        let result = small(ApproachKind::Varity, 30);
        assert_eq!(result.aggregates.programs, 30);
        assert_eq!(result.aggregates.total_comparisons, 30 * 18);
        assert_eq!(result.records.len(), 30);
        assert_eq!(result.llm_calls, 0);
        assert_eq!(result.simulated_llm_time, Duration::ZERO);
        assert_eq!(result.sources.len() + result.generation_failures, 30);
        assert!(result.inconsistency_rate() <= 1.0);
    }

    #[test]
    fn llm4fp_campaign_builds_a_successful_set_and_uses_feedback() {
        let result = small(ApproachKind::Llm4Fp, 40);
        assert_eq!(result.aggregates.programs, 40);
        assert!(result.llm_calls >= 40);
        assert!(result.simulated_llm_time > Duration::ZERO);
        assert!(!result.successful_sources.is_empty(), "no program triggered inconsistencies");
        // Once the successful set is non-empty, feedback mutation is used.
        assert!(
            result.records.iter().any(|r| r.strategy == "feedback-mutation"),
            "feedback strategy never selected"
        );
        // Successful records are exactly those with inconsistencies.
        for r in &result.records {
            assert_eq!(r.successful, r.inconsistencies > 0);
        }
    }

    #[test]
    fn campaigns_are_deterministic_for_a_seed() {
        let a = small(ApproachKind::GrammarGuided, 12);
        let b = small(ApproachKind::GrammarGuided, 12);
        assert_eq!(a.aggregates.inconsistencies, b.aggregates.inconsistencies);
        assert_eq!(a.sources, b.sources);
        assert_eq!(a.generation_failures, b.generation_failures);
    }

    #[test]
    fn llm_approaches_detect_more_than_varity_on_equal_budgets() {
        // The central RQ1 ordering on a small budget: LLM4FP >= Grammar-Guided
        // and both above Varity. (Small budgets keep this test fast; the
        // bench binaries reproduce the full-scale numbers.)
        let varity = small(ApproachKind::Varity, 40);
        let grammar = small(ApproachKind::GrammarGuided, 40);
        let llm4fp = small(ApproachKind::Llm4Fp, 40);
        assert!(
            grammar.inconsistency_rate() > varity.inconsistency_rate(),
            "grammar {} vs varity {}",
            grammar.inconsistency_rate(),
            varity.inconsistency_rate()
        );
        assert!(
            llm4fp.inconsistency_rate() >= grammar.inconsistency_rate() * 0.8,
            "llm4fp {} vs grammar {}",
            llm4fp.inconsistency_rate(),
            grammar.inconsistency_rate()
        );
        assert!(llm4fp.inconsistency_rate() > varity.inconsistency_rate());
    }

    #[test]
    fn direct_prompt_counts_generation_failures_in_the_denominator() {
        let mut config = CampaignConfig::new(ApproachKind::DirectPrompt)
            .with_budget(30)
            .with_seed(5)
            .with_threads(2);
        config.direct_prompt_invalid_rate = 0.5;
        let result = Campaign::new(config).run();
        assert!(result.generation_failures > 0);
        assert_eq!(result.aggregates.programs, 30);
        assert_eq!(result.aggregates.total_comparisons, 30 * 18);
        assert_eq!(result.sources.len(), 30 - result.generation_failures);
    }

    #[test]
    fn record_ids_hash_the_recorded_sources() {
        // Each valid record's id is the hash of the source recorded for it;
        // generation failures record no source and an empty id.
        let mut direct = CampaignConfig::new(ApproachKind::DirectPrompt)
            .with_budget(30)
            .with_seed(5)
            .with_threads(2);
        direct.direct_prompt_invalid_rate = 0.5;
        let results = [small(ApproachKind::Llm4Fp, 40), Campaign::new(direct).run()];
        assert!(results[1].generation_failures > 0);
        for result in &results {
            let valid: Vec<&ProgramRecord> = result.records.iter().filter(|r| r.valid).collect();
            assert_eq!(valid.len(), result.sources.len());
            for (record, source) in valid.iter().zip(&result.sources) {
                assert_eq!(record.program_id, format!("{:016x}", source_hash(source)));
            }
            for record in result.records.iter().filter(|r| !r.valid) {
                assert!(record.program_id.is_empty());
            }
        }
    }

    #[test]
    fn diversity_report_is_computable_from_a_campaign() {
        let result = small(ApproachKind::Llm4Fp, 12);
        let report = result.measure_diversity();
        assert_eq!(report.programs, result.sources.len());
        assert!(report.avg_codebleu > 0.0 && report.avg_codebleu < 1.0);
    }

    #[test]
    fn thread_counts_change_neither_results_nor_the_diversity_report() {
        // `threads` is inert: the matrix runs on the campaign's own
        // thread and CodeBLEU on every available core.
        let config = CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(30).with_seed(29);
        let reference = Campaign::new(config.clone().with_threads(1)).run();
        let reference_diversity = reference.measure_diversity();
        for threads in [4, 8] {
            let run = Campaign::new(config.clone().with_threads(threads)).run();
            assert_eq!(run.records, reference.records, "threads {threads}");
            assert_eq!(run.aggregates, reference.aggregates, "threads {threads}");
            assert_eq!(run.successful_sources, reference.successful_sources, "threads {threads}");
            assert_eq!(run.measure_diversity(), reference_diversity, "threads {threads}");
        }
    }

    #[test]
    fn total_time_cost_includes_simulated_latency() {
        let result = small(ApproachKind::GrammarGuided, 5);
        assert!(result.total_time_cost() >= result.simulated_llm_time);
        assert!(result.simulated_llm_time >= Duration::from_secs(5 * 9));
    }

    #[test]
    fn successful_set_deduplicates_structural_copies() {
        let mut set = SuccessfulSet::default();
        assert!(set.insert("void compute(double x) { comp = x; }"));
        assert!(!set.insert("void compute(double x) { comp = x; }"));
        assert!(set.insert("void compute(double y) { comp = y + 1.0; }"));
        assert_eq!(set.len(), 2);
        // A campaign's successful set never contains duplicates.
        let result = small(ApproachKind::Llm4Fp, 60);
        let mut unique: Vec<u64> =
            result.successful_sources.iter().map(|s| source_hash(s)).collect();
        let before = unique.len();
        unique.sort_unstable();
        unique.dedup();
        assert_eq!(unique.len(), before, "successful set contains duplicates");
    }

    #[test]
    fn runner_stages_match_the_one_shot_driver() {
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(25).with_seed(7).with_threads(2);
        let mut runner = CampaignRunner::new(config.clone());
        for index in 0..config.programs {
            let record = runner.run_one(index);
            assert_eq!(record.index, index);
        }
        assert_eq!(runner.programs_run(), config.programs);
        let staged = runner.finish();
        let oneshot = Campaign::new(config).run();
        assert_eq!(staged.records, oneshot.records);
        assert_eq!(staged.sources, oneshot.sources);
        assert_eq!(staged.aggregates, oneshot.aggregates);
        assert_eq!(staged.successful_sources, oneshot.successful_sources);
        assert_eq!(staged.llm_calls, oneshot.llm_calls);
    }

    #[test]
    fn successful_set_tracks_own_vs_injected_and_round_trips_snapshots() {
        let mut set = SuccessfulSet::new();
        set.insert("void compute(double x) { comp = x; }");
        let injected = vec![
            "void compute(double y) { comp = y * 2.0; }".to_string(),
            "void compute(double x) { comp = x; }".to_string(), // structural dup of own find
        ];
        assert_eq!(set.merge_sources(&injected), 1);
        assert_eq!(set.len(), 2);
        assert_eq!(set.own_sources(), vec!["void compute(double x) { comp = x; }".to_string()]);
        assert!(set.contains("void compute(double y) { comp = y * 2.0; }"));
        let restored = SuccessfulSet::restore(set.snapshot());
        assert_eq!(restored, set);
        // The restored hash index still deduplicates.
        let mut restored = restored;
        assert!(!restored.insert("void compute(double y) { comp = y * 2.0; }"));
    }

    /// A set holding `sources` as injected entries.
    fn set_of(sources: &[String]) -> SuccessfulSet {
        let mut set = SuccessfulSet::new();
        set.merge_sources(sources);
        set
    }

    #[test]
    fn stored_hashes_match_their_sources_under_every_operation() {
        let alphabet: Vec<String> = (0..6)
            .map(|i| format!("void compute(double x) {{ comp = x * {i}.5 - cos(x); }}"))
            .collect();
        let check = |set: &SuccessfulSet| {
            assert_eq!(set.hashes().len(), set.len());
            for (hash, source) in set.hashes().iter().zip(set.sources()) {
                assert_eq!(*hash, source_hash(source), "{source}");
                assert!(set.contains(source));
            }
        };
        let mut state = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: usize| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 33) as usize % bound
        };
        let mut sets = [SuccessfulSet::new(), SuccessfulSet::new()];
        for _ in 0..400 {
            let (target, other) = (next(2), next(2));
            match next(5) {
                0 => {
                    sets[target].insert(&alphabet[next(alphabet.len())]);
                }
                1 => {
                    let start = next(alphabet.len());
                    sets[target].merge_sources(&alphabet[start..]);
                }
                2 => {
                    let from = sets[other].clone();
                    sets[target].merge(&from);
                }
                3 => sets[target] = SuccessfulSet::restore(sets[target].snapshot()),
                _ => {
                    let start = next(sets[other].len() + 1);
                    let tail = sets[other].tail(start);
                    assert_eq!(tail.sources(), &sets[other].sources()[start..]);
                    check(&tail);
                    sets[target].merge(&tail);
                }
            }
            check(&sets[target]);
            if next(16) == 0 {
                sets[target] = SuccessfulSet::new();
            }
        }
    }

    #[test]
    fn checkpointed_runners_continue_the_exact_stream() {
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(30).with_seed(19).with_threads(2);
        // Uninterrupted reference.
        let mut reference = CampaignRunner::new(config.clone());
        for index in 0..config.programs {
            reference.run_one(index);
        }
        let reference = reference.finish();
        // Checkpoint mid-run (twice, to cover chained checkpoints), then
        // restore and continue.
        let mut runner = CampaignRunner::new(config.clone());
        for index in 0..10 {
            runner.run_one(index);
        }
        let mut runner = CampaignRunner::restore(config.clone(), runner.checkpoint());
        for index in 10..20 {
            runner.run_one(index);
        }
        let checkpoint = runner.checkpoint();
        assert_eq!(checkpoint.records.len(), 20);
        let mut runner = CampaignRunner::restore(config.clone(), checkpoint);
        for index in 20..config.programs {
            runner.run_one(index);
        }
        let resumed = runner.finish();
        assert_eq!(resumed.records, reference.records);
        assert_eq!(resumed.sources, reference.sources);
        assert_eq!(resumed.successful_sources, reference.successful_sources);
        assert_eq!(resumed.aggregates, reference.aggregates);
        assert_eq!(resumed.llm_calls, reference.llm_calls);
        assert_eq!(resumed.simulated_llm_time, reference.simulated_llm_time);
    }

    #[test]
    fn checkpoint_side_injection_commutes_with_runner_side_injection() {
        // The out-of-process exchange barrier: the coordinator injects
        // the global pool into a stored checkpoint instead of a live
        // runner. Both orders must produce bit-identical continuations.
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(24).with_seed(31).with_threads(2);
        let pool = vec![
            "void compute(double q) { comp = q / 3.0; }".to_string(),
            "void compute(double z) { comp = z - 0.5; }".to_string(),
        ];
        let pool = set_of(&pool);
        let drive = |mut runner: CampaignRunner, from: usize| {
            for index in from..config.programs {
                runner.run_one(index);
            }
            runner.finish()
        };
        // Runner-side: run half, inject live, checkpoint, continue.
        let mut live = CampaignRunner::new(config.clone());
        for index in 0..12 {
            live.run_one(index);
        }
        assert_eq!(live.inject_successful(&pool), 2);
        let live_checkpoint = live.checkpoint();
        // Coordinator-side: checkpoint first, inject into the snapshot.
        let mut coordinator = CampaignRunner::new(config.clone());
        for index in 0..12 {
            coordinator.run_one(index);
        }
        let mut stored = coordinator.checkpoint();
        assert_eq!(stored.inject_successful(&pool), 2);
        // Wall clocks are not replayable; everything else must commute.
        let mut live_checkpoint = live_checkpoint;
        live_checkpoint.pipeline_time = Duration::ZERO;
        stored.pipeline_time = Duration::ZERO;
        assert_eq!(stored, live_checkpoint, "injection must commute with checkpointing");
        // Injection is idempotent on the snapshot, like on the live set.
        assert_eq!(stored.inject_successful(&pool), 0);
        let a = drive(CampaignRunner::restore(config.clone(), live_checkpoint), 12);
        let b = drive(CampaignRunner::restore(config.clone(), stored), 12);
        assert_eq!(a.records, b.records);
        assert_eq!(a.successful_sources, b.successful_sources);
        assert_eq!(a.aggregates, b.aggregates);
    }

    #[test]
    fn injected_sources_feed_selection_but_not_reported_finds() {
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(12).with_seed(23).with_threads(2);
        let mut runner = CampaignRunner::new(config.clone());
        let foreign = "void compute(double q) { comp = q / 3.0; }".to_string();
        assert_eq!(runner.inject_successful(&set_of(std::slice::from_ref(&foreign))), 1);
        assert_eq!(runner.successful_len(), 1);
        // The injected source is visible to seed selection...
        assert_eq!(runner.successful_from(0).into_sources(), vec![foreign.clone()]);
        for index in 0..config.programs {
            runner.run_one(index);
        }
        let result = runner.finish();
        // ...but never reported as this campaign's own find.
        assert!(!result.successful_sources.contains(&foreign));
    }

    #[test]
    fn sealed_and_reference_campaigns_agree_bit_for_bit() {
        // Campaign-scale check of the VM ≡ interpreter pin: the whole
        // result (records, aggregates, successful sets) is identical
        // whichever execution back end runs the matrix.
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(40).with_seed(13).with_threads(1);
        let mut reference_runner = CampaignRunner::new(config.clone()).with_reference_execution();
        for index in 0..config.programs {
            reference_runner.run_one(index);
        }
        let reference = reference_runner.finish();
        let sealed = Campaign::new(config).run();
        assert_eq!(sealed.records, reference.records);
        assert_eq!(sealed.aggregates, reference.aggregates);
        assert_eq!(sealed.sources, reference.sources);
        assert_eq!(sealed.successful_sources, reference.successful_sources);
    }

    #[test]
    fn runners_report_the_peak_register_file() {
        let config =
            CampaignConfig::new(ApproachKind::Varity).with_budget(10).with_seed(3).with_threads(2);
        let mut runner = CampaignRunner::new(config.clone());
        assert_eq!(runner.peak_register_file(), 0, "no matrix has run yet");
        for index in 0..config.programs {
            runner.run_one(index);
        }
        let peak = runner.peak_register_file();
        assert!(peak > 0, "virtual campaigns must track the register file");
        // The reference engine never touches the VM scratch.
        let mut reference = CampaignRunner::new(config).with_reference_execution();
        reference.run_one(0);
        assert_eq!(reference.peak_register_file(), 0);
    }

    #[test]
    #[cfg(unix)]
    fn external_campaigns_are_deterministic_and_cache_hits_skip_process_spawns() {
        use crate::config::ExternalBackendSpec;

        let dir = std::env::temp_dir()
            .join("llm4fp-campaign-tests")
            .join(format!("extcc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let pair = llm4fp_extcc::fakecc::install_pair(&dir).expect("install fakecc");
        let spec = ExternalBackendSpec::new(pair);
        // Direct-Prompt is the duplicate-heavy regime: unguided sampling
        // repeats knowledge-base programs outright.
        let config = CampaignConfig::new(ApproachKind::DirectPrompt)
            .with_budget(12)
            .with_seed(9)
            .with_threads(1)
            .with_backend(BackendSpec::External(spec));
        assert_eq!(config.compilers.len(), 2, "matrix restricted to the fake toolchain");
        let configs_per_program = config.compilers.len() * config.levels.len();

        // External campaigns are a pure function of (config, toolchain).
        let reference = Campaign::new(config.clone()).run();
        let again = Campaign::new(config.clone()).run();
        assert_eq!(reference.records, again.records);
        assert_eq!(reference.aggregates, again.aggregates);
        assert!(
            reference.aggregates.inconsistencies > 0,
            "fake personalities must disagree at non-strict levels"
        );

        // A cached run is bit-identical, and every miss costs exactly one
        // compiler spawn per configuration while every hit costs none.
        let cache = Arc::new(ResultCache::new());
        let compiles_before = llm4fp_extcc::fakecc::compile_count(&dir);
        let mut cached_runner = CampaignRunner::new(config.clone()).with_cache(Arc::clone(&cache));
        for index in 0..config.programs {
            cached_runner.run_one(index);
        }
        let cached = cached_runner.finish();
        assert_eq!(cached.records, reference.records);
        assert_eq!(cached.aggregates, reference.aggregates);
        let stats = cache.stats();
        let compiles_first = llm4fp_extcc::fakecc::compile_count(&dir) - compiles_before;
        assert_eq!(
            compiles_first,
            stats.misses * configs_per_program as u64,
            "every cache miss compiles the full matrix once"
        );

        // Re-running the identical campaign against the shared cache hits
        // on every valid program: zero further process spawns.
        let compiles_before_second = llm4fp_extcc::fakecc::compile_count(&dir);
        let runs_before_second = llm4fp_extcc::fakecc::run_count(&dir);
        let mut second_runner = CampaignRunner::new(config.clone()).with_cache(Arc::clone(&cache));
        for index in 0..config.programs {
            second_runner.run_one(index);
        }
        let second = second_runner.finish();
        assert_eq!(second.records, reference.records);
        assert_eq!(llm4fp_extcc::fakecc::compile_count(&dir), compiles_before_second);
        assert_eq!(llm4fp_extcc::fakecc::run_count(&dir), runs_before_second);
        assert_eq!(cache.stats().hits, stats.hits + (stats.hits + stats.misses));

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn runners_sharing_a_cache_never_serve_each_other_across_input_seeds_or_matrices() {
        // Varity's program stream ignores test results, so the two runners
        // of each pair generate the same programs: every lookup of the
        // second one would hit the first one's entries if the key scope did
        // not tell the runners apart.
        let base =
            CampaignConfig::new(ApproachKind::Varity).with_budget(12).with_seed(4).with_threads(1);
        let mut fewer_levels = base.clone();
        fewer_levels.levels.truncate(2);
        let run = |config: &CampaignConfig, input_seed: u64, cache: Option<&Arc<ResultCache>>| {
            let mut runner = CampaignRunner::new(config.clone()).with_input_seed(input_seed);
            if let Some(cache) = cache {
                runner = runner.with_cache(Arc::clone(cache));
            }
            for index in 0..config.programs {
                runner.run_one(index);
            }
            runner.finish()
        };
        let pairs =
            [("input seed", (&base, 4), (&base, 5)), ("levels", (&base, 4), (&fewer_levels, 4))];
        for (what, first, second) in pairs {
            let cache = Arc::new(ResultCache::new());
            for (config, input_seed) in [first, second] {
                let cached = run(config, input_seed, Some(&cache));
                let plain = run(config, input_seed, None);
                assert_eq!(cached.records, plain.records, "runners differing in {what}");
                assert_eq!(cached.aggregates, plain.aggregates, "runners differing in {what}");
            }
        }
    }

    #[test]
    fn cached_and_uncached_campaigns_agree_bit_for_bit() {
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(30).with_seed(3).with_threads(2);
        let cache = Arc::new(ResultCache::new());
        let mut cached_runner = CampaignRunner::new(config.clone()).with_cache(Arc::clone(&cache));
        for index in 0..config.programs {
            cached_runner.run_one(index);
        }
        let cached = cached_runner.finish();
        let plain = Campaign::new(config).run();
        assert_eq!(cached.records, plain.records);
        assert_eq!(cached.aggregates, plain.aggregates);
        assert_eq!(cached.sources, plain.sources);
        let stats = cache.stats();
        assert_eq!(stats.hits + stats.misses, cached.sources.len() as u64);
    }
}
