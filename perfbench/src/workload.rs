//! The three end-to-end workloads, built from the same flag strings a user
//! passes to the experiment binaries (`llm4fp_bench::ExpOptions::parse`),
//! and the measured run that reports their end-to-end metrics.
//!
//! Every workload is a closed loop: each shard worker takes the next
//! shard-epoch segment when its previous one completes, with `nproc`
//! workers (and `nproc` worker daemons for the process pool).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use llm4fp::{ApproachKind, BackendSpec, CampaignResult};
use llm4fp_bench::ExpOptions;
use llm4fp_metrics::DiversityReport;
use llm4fp_orchestrator::{
    default_workers, plan_shards, OrchestratedResult, Orchestrator, Scheduler,
};

use crate::report::{cpu_seconds, digest, dir_bytes, median, peak_rss_mb, Report};

/// Shards per campaign (K).
pub const SHARDS: usize = 8;
/// Feedback-exchange epochs per campaign (E). Kept above 1 so that
/// checkpoints and exchange barriers are on the measured path.
pub const EPOCHS: usize = 4;
/// The set-up budget: one program per shard-epoch, so a run does all of
/// its fixed work (validation, executor start-up, barriers, run-dir
/// creation and teardown) and almost no per-program work.
pub const SETUP_BUDGET: usize = SHARDS * EPOCHS;
/// A run measures its set-up at least `SETUP_MIN_REPS` and at most
/// `SETUP_MAX_REPS` times, repeating while under `SETUP_SECONDS` in
/// total; `setup_s` is the median.
const SETUP_MIN_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 25;
const SETUP_SECONDS: f64 = 3.0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// LLM4FP in process, no run dir, no diversity report: the
    /// per-program loop does nearly all the work.
    CampaignLlm4fp,
    /// Table 2: all four approaches through `Scheduler`, then a diversity
    /// report per approach; CodeBLEU dominates.
    PaperTable2,
    /// The LLM4FP campaign through the process pool with a persisted run
    /// dir, then a resume of that run dir: transport and persistence.
    PoolRundir,
}

impl Workload {
    pub const ALL: [Workload; 3] =
        [Workload::CampaignLlm4fp, Workload::PaperTable2, Workload::PoolRundir];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CampaignLlm4fp => "campaign-llm4fp",
            Workload::PaperTable2 => "paper-table2",
            Workload::PoolRundir => "pool-rundir",
        }
    }

    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Programs per approach in one measured iteration.
    ///
    /// `pool-rundir` is small because the JSON string parser is quadratic
    /// in frame size and dominates it; grow it once that parser is linear.
    /// `paper-table2` is as small as keeps the CodeBLEU pair cap binding on
    /// every approach (Direct-Prompt loses about 8% of its programs as
    /// invalid), which halves its run time against the paper's 1,000.
    pub fn budget(self) -> usize {
        match self {
            Workload::CampaignLlm4fp => 5_000,
            Workload::PaperTable2 => 160,
            Workload::PoolRundir => 120,
        }
    }

    /// How many campaign seeds, derived from the run's seed, the measured
    /// iterations cycle through. `pool-rundir`'s cost depends on how large
    /// one campaign's programs grow (its frames are parsed in time
    /// quadratic in their size), so it averages over many campaigns; the
    /// others test enough programs per iteration to average within one.
    pub fn seed_cycle(self) -> usize {
        match self {
            Workload::PoolRundir => 16,
            _ => 1,
        }
    }

    pub fn approaches(self) -> &'static [ApproachKind] {
        match self {
            Workload::PaperTable2 => &ApproachKind::ALL,
            _ => &[ApproachKind::Llm4Fp],
        }
    }

    /// The flag strings a user passes to run this workload.
    pub fn flags(self, seed: u64, programs: usize, run_dir: &Path) -> Vec<String> {
        let workers = default_workers().to_string();
        let mut flags = common_flags(seed, programs, &workers);
        if self == Workload::PoolRundir {
            flags.extend(
                ["--executor", "process-pool", "--worker-procs", &workers, "--run-dir"]
                    .map(String::from),
            );
            flags.push(run_dir.display().to_string());
        }
        flags
    }

    pub fn options(self, seed: u64, programs: usize, run_dir: &Path) -> ExpOptions {
        ExpOptions::parse(self.flags(seed, programs, run_dir)).expect("workload flags parse")
    }
}

fn common_flags(seed: u64, programs: usize, workers: &str) -> Vec<String> {
    let (programs, shards, epochs, seed) =
        (programs.to_string(), SHARDS.to_string(), EPOCHS.to_string(), seed.to_string());
    [
        "--programs",
        &programs,
        "--shards",
        &shards,
        "--epochs",
        &epochs,
        "--seed",
        &seed,
        "--workers",
        workers,
        "--no-metrics",
    ]
    .map(String::from)
    .to_vec()
}

/// The campaign seed of the `index`-th iteration of a run with `seed`
/// (index 0 is the run's seed itself).
pub fn iteration_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// What one run of a workload produced.
#[derive(Debug, Clone)]
pub struct Iteration {
    /// Programs tested, over all approaches.
    pub programs: usize,
    /// Wall time of the whole run, diversity reports included.
    pub wall: Duration,
    pub results: Vec<CampaignResult>,
    pub diversity: Vec<DiversityReport>,
    /// Programs of shards the supervisor quarantined.
    pub quarantined: usize,
    /// The run dir and its resume (`pool-rundir` only).
    pub persisted: Option<Persisted>,
}

#[derive(Debug, Clone)]
pub struct Persisted {
    pub run_dir_bytes: u64,
    pub resume: Duration,
    pub resumed: CampaignResult,
}

/// Run one campaign through the orchestrator exactly as the experiment
/// binaries do, but returning errors instead of exiting.
pub fn orchestrate(
    opts: &ExpOptions,
    approach: ApproachKind,
) -> Result<OrchestratedResult, String> {
    let mut builder = Orchestrator::new(opts.campaign_config_with(approach, BackendSpec::Virtual))
        .options(opts.orchestrator_options())
        .shards(opts.shards);
    if let Some(executor) = opts.shard_executor() {
        builder = builder.executor(executor);
    }
    builder.run().map_err(|e| format!("{} campaign failed: {e}", approach.name()))
}

fn quarantined_programs(run: &OrchestratedResult, shards: usize) -> usize {
    let specs = plan_shards(&run.result.config, shards);
    run.stats.failures.iter().map(|f| specs.get(f.shard).map_or(0, |s| s.budget)).sum()
}

/// Run the workload once under `opts`, including teardown of its run dir.
pub fn run(workload: Workload, opts: &ExpOptions) -> Result<Iteration, String> {
    if let Some(dir) = &opts.run_dir {
        remove_dir(dir)?;
    }
    let start = Instant::now();
    let runs = match workload {
        Workload::PaperTable2 => {
            let configs: Vec<_> = workload
                .approaches()
                .iter()
                .map(|&a| opts.campaign_config_with(a, BackendSpec::Virtual))
                .collect();
            let mut scheduler = Scheduler::new(opts.orchestrator_options()).shards(opts.shards);
            if let Some(executor) = opts.shard_executor() {
                scheduler = scheduler.executor(executor);
            }
            scheduler.run(&configs).map_err(|e| format!("suite failed: {e}"))?
        }
        _ => vec![orchestrate(opts, ApproachKind::Llm4Fp)?],
    };
    let diversity = match workload {
        Workload::PaperTable2 => runs.iter().map(|r| r.result.measure_diversity()).collect(),
        _ => Vec::new(),
    };
    let wall = start.elapsed();
    let quarantined = runs.iter().map(|r| quarantined_programs(r, opts.shards)).sum();
    let results: Vec<CampaignResult> = runs.into_iter().map(|r| r.result).collect();
    let persisted = match &opts.run_dir {
        Some(dir) => {
            let run_dir_bytes = dir_bytes(dir);
            let started = Instant::now();
            let resumed = Orchestrator::resume(dir).map_err(|e| format!("resume failed: {e}"))?;
            let resume = started.elapsed();
            remove_dir(dir)?;
            Some(Persisted { run_dir_bytes, resume, resumed: resumed.result })
        }
        None => None,
    };
    Ok(Iteration {
        programs: results.iter().map(|r| r.records.len()).sum(),
        wall,
        results,
        diversity,
        quarantined,
        persisted,
    })
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    match std::fs::remove_dir_all(dir) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("cannot remove {}: {e}", dir.display())),
    }
}

/// Digests of the workload's campaigns computed by a different path than
/// any timed run: in process, one worker, campaign by campaign, no run dir.
pub fn reference(workload: Workload, seed: u64, programs: usize) -> Result<Vec<u64>, String> {
    workload.approaches().iter().map(|&a| reference_one(seed, programs, a)).collect()
}

/// [`reference`] for one approach.
pub fn reference_one(seed: u64, programs: usize, approach: ApproachKind) -> Result<u64, String> {
    let opts = ExpOptions::parse(common_flags(seed, programs, "1")).expect("reference flags parse");
    orchestrate(&opts, approach).map(|r| digest(&r.result))
}

/// Whether an iteration reproduced the reference: every campaign (and
/// the resumed run dir) digests equal, nothing quarantined, every
/// diversity report covers its whole corpus.
pub fn matches(iteration: &Iteration, reference: &[u64]) -> bool {
    let digests: Vec<u64> = iteration.results.iter().map(digest).collect();
    let resumed_ok = iteration
        .persisted
        .as_ref()
        .map_or(true, |p| iteration.results.len() == 1 && digest(&p.resumed) == reference[0]);
    let diversity_ok =
        iteration.diversity.iter().zip(&iteration.results).all(|(report, result)| {
            report.programs == result.sources.len() && report.pairs_scored > 0
        });
    digests == reference && iteration.quarantined == 0 && resumed_ok && diversity_ok
}

/// A directory inside the working directory for run dirs and other files
/// the benchmark writes; removed when dropped.
pub struct ScratchDir(PathBuf);

impl ScratchDir {
    pub fn new(label: &str) -> std::io::Result<ScratchDir> {
        let dir = PathBuf::from(".perfbench_tmp").join(format!("{label}-{}", std::process::id()));
        std::fs::create_dir_all(&dir)?;
        Ok(ScratchDir(dir))
    }

    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Leave no empty parent behind either (fails harmlessly while
        // another run still uses it).
        let _ = std::fs::remove_dir(".perfbench_tmp");
    }
}

/// The end-to-end run at `budget` programs per approach: repeated set-up
/// runs, then iterations until `seconds` have passed (at least one), each
/// checked against the reference for its campaign seed.
pub fn measure(
    workload: Workload,
    seed: u64,
    seconds: u64,
    budget: usize,
) -> Result<Report, String> {
    let scratch = ScratchDir::new(workload.name()).map_err(|e| format!("scratch dir: {e}"))?;
    let run_dir = scratch.path().join("run");
    let mut report = Report::default();
    report.note(format!(
        "workload {} seed {seed}: {budget} programs x {} approach(es), K={SHARDS} E={EPOCHS}, \
         {} workers; flags: {}",
        workload.name(),
        workload.approaches().len(),
        default_workers(),
        workload.flags(seed, budget, &run_dir).join(" ")
    ));

    let setup_opts = workload.options(seed, SETUP_BUDGET, &run_dir);
    let setup_reference = reference(workload, seed, SETUP_BUDGET)?;
    let mut setup = Vec::new();
    while setup.len() < SETUP_MIN_REPS
        || (setup.len() < SETUP_MAX_REPS && setup.iter().sum::<f64>() < SETUP_SECONDS)
    {
        let started = Instant::now();
        let iteration = run(workload, &setup_opts)?;
        setup.push(started.elapsed().as_secs_f64());
        report.check(iteration.programs, matches(&iteration, &setup_reference));
    }

    let mut references = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(seconds);
    let (mut throughput, mut resume, mut run_dir_mb) = (Vec::new(), Vec::new(), Vec::new());
    let (mut programs, mut cpu) = (0, 0.0);
    for index in 0.. {
        let cycle = index % workload.seed_cycle();
        let seed = iteration_seed(seed, cycle);
        if cycle == references.len() {
            references.push(reference(workload, seed, budget)?);
        }
        let opts = workload.options(seed, budget, &run_dir);
        let cpu_before = cpu_seconds();
        let iteration = match run(workload, &opts) {
            Ok(iteration) => iteration,
            Err(e) => {
                report.note(format!("iteration failed: {e}"));
                report.check(budget * workload.approaches().len(), false);
                break;
            }
        };
        cpu += cpu_seconds() - cpu_before;
        report.check(iteration.programs, matches(&iteration, &references[cycle]));
        programs += iteration.programs;
        throughput.push(iteration.programs as f64 / iteration.wall.as_secs_f64());
        if let Some(p) = &iteration.persisted {
            resume.push(p.resume.as_secs_f64());
            run_dir_mb.push(p.run_dir_bytes as f64 / 1e6);
        }
        if Instant::now() >= deadline {
            break;
        }
    }
    if throughput.is_empty() {
        return Err("no iteration completed".into());
    }
    report.note(format!("{} measured iteration(s), {programs} programs", throughput.len()));
    report.metric("programs_per_s", median(&throughput), "programs/s");
    report.metric("setup_s", median(&setup), "s");
    report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    report.metric("cpu_ms_per_program", 1e3 * cpu / programs.max(1) as f64, "ms");
    if !resume.is_empty() {
        report.printed("resume_s", median(&resume), "s");
        report.printed("run_dir_mb", median(&run_dir_mb), "MB");
    }
    Ok(report)
}
