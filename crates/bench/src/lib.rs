//! # llm4fp-bench
//!
//! Shared harness for the experiment binaries (`exp_table1` … `exp_all`)
//! that regenerate every table and figure of the paper, and for the
//! Criterion benchmarks that measure the cost of each pipeline stage.
//!
//! Campaigns run through the `llm4fp-orchestrator` engine: sharded over a
//! worker pool with the differential-testing result cache enabled. With
//! the default `--shards 1` the results are bit-identical to the
//! sequential driver; higher shard counts trade the single global
//! feedback set for wall-clock scalability (results stay deterministic
//! per `(seed, shards)`).
//!
//! Every experiment binary accepts:
//!
//! * `--programs N` — program budget per approach (default 150, chosen so a
//!   full experiment finishes in well under a minute on a laptop);
//! * `--paper` — use the paper's budget of 1,000 programs per approach;
//! * `--seed S` — base RNG seed (default 42);
//! * `--shards K` — shards per campaign (default 1: sequential-equivalent);
//! * `--epochs E` — cross-shard feedback-exchange epochs (default 4; at
//!   `--shards 1` exchange is a structural no-op, and `--epochs 1`
//!   disables it so shards feed only on their own findings);
//! * `--workers W` — shard worker threads (default: available parallelism);
//!   each runs one shard at a time, so with `--backend extcc` this also
//!   bounds how many compilers and test binaries run at once;
//! * `--backend virtual|extcc` — execution backend (default `virtual`;
//!   `extcc` detects host gcc/clang and drives the real toolchain,
//!   restricting the matrix to the detected compilers — the binary exits
//!   with a clear message when fewer than two are installed);
//! * `--run-dir PATH` — persist the run (and its telemetry flight
//!   recorders) into a resumable run directory (single-campaign binaries;
//!   suite binaries schedule in memory);
//! * `--executor in-process|process-pool|remote` — the shard transport
//!   (default `in-process`: a thread pool in this process).
//!   `process-pool` and `remote` are two spellings of one out-of-process
//!   executor: shard segments go to `llm4fp-worker` daemons over a TCP
//!   socket, supervised by leases, heartbeats, reconnect-and-resume and
//!   respawn. Results are bit-identical across all of them. Every flag
//!   below that configures workers applies to both spellings;
//! * `--worker-procs N` — worker daemons to spawn on loopback (default:
//!   available parallelism);
//! * `--listen ADDR` — bind the
//!   coordinator to this address (default `127.0.0.1:0`, an ephemeral
//!   loopback port for self-spawned workers; use e.g. `0.0.0.0:7070` for
//!   workers dialing in from elsewhere);
//! * `--no-spawn-workers` — don't self-spawn loopback workers; the run
//!   waits for external `llm4fp-worker --connect` daemons to dial
//!   `--listen`;
//! * `--trace` — record span events; with `--run-dir` a Chrome
//!   `trace_event`-compatible `trace.jsonl` is written (implies metrics);
//! * `--no-metrics` — disable telemetry counters/histograms entirely
//!   (they are on by default for experiment runs; campaign results are
//!   bit-identical either way);
//! * `--max-dispatch-attempts N` — per-shard-job dispatch budget
//!   (default 3; crashes, dropped connections and expired leases consume
//!   attempts, results stay bit-identical across redispatch). A job that
//!   exhausts it fails the run (exit 1, "failed N time(s)"); rerunning
//!   the same `--run-dir` under any executor resumes from its latest
//!   complete barrier;
//! * `--shard-timeout-ms N` — the dispatch lease per shard job: a worker
//!   that stays silent past it loses the job to redispatch, and a
//!   self-spawned worker still silent one lease later is killed and
//!   respawned;
//! * `--fault-plan PATH` — chaos testing: load a JSON
//!   `llm4fp_orchestrator::FaultPlan` and inject its worker/persistence
//!   faults into the run (deterministic supervision means a run that
//!   survives a fault plan is bit-identical to a fault-free run).

#![deny(unsafe_code)]

use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use llm4fp::{ApproachKind, BackendSpec, CampaignConfig, CampaignResult, ExternalBackendSpec};
use llm4fp_orchestrator::{
    default_workers, FaultPlan, OrchestratedResult, Orchestrator, OrchestratorOptions, Scheduler,
    ShardExecutor, SupervisionConfig, WorkerExecutor,
};
use llm4fp_telemetry::TelemetrySpec;

/// Which execution backend the experiment binaries drive.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CliBackend {
    /// The machine-independent virtual compiler (the default).
    #[default]
    Virtual,
    /// Real host compilers detected on this machine (`llm4fp-extcc`).
    Extcc,
}

/// Which shard transport the experiment binaries execute through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CliExecutor {
    /// A thread pool inside this process (the default).
    #[default]
    InProcess,
    /// Out-of-process `llm4fp-worker` daemons
    /// (`llm4fp_orchestrator::WorkerExecutor`). Results are bit-identical
    /// to in-process.
    ProcessPool,
    /// Another spelling of [`CliExecutor::ProcessPool`]: the same
    /// executor, configured by the same flags.
    Remote,
}

/// Command-line options shared by all experiment binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpOptions {
    pub programs: usize,
    pub seed: u64,
    pub shards: usize,
    pub epochs: usize,
    pub workers: usize,
    pub backend: CliBackend,
    /// Collect telemetry counters and histograms (on by default for
    /// experiment runs; `--no-metrics` turns everything off). Pure
    /// observation — results are bit-identical either way.
    pub metrics: bool,
    /// Also record span events (`--trace`); persisted runs write a
    /// Chrome `trace_event`-compatible `trace.jsonl`. Implies metrics.
    pub trace: bool,
    /// Persist single-campaign runs into this directory (`--run-dir`),
    /// including the `metrics.json`/`trace.jsonl` flight recorders.
    pub run_dir: Option<PathBuf>,
    /// The shard transport (`--executor in-process|process-pool|remote`).
    pub executor: CliExecutor,
    /// Worker daemons to spawn on loopback (`--worker-procs`; 0 =
    /// available parallelism).
    pub worker_procs: usize,
    /// Bind address for the coordinator (`--listen`; `None` =
    /// `127.0.0.1:0`).
    pub listen: Option<String>,
    /// `false` (via `--no-spawn-workers`) waits for external workers
    /// instead of self-spawning loopback daemons.
    pub spawn_workers: bool,
    /// Dispatch budget per shard job (`--max-dispatch-attempts`; 0 =
    /// executor default).
    pub max_dispatch_attempts: u8,
    /// Dispatch lease per shard job (`--shard-timeout-ms`; 0 = executor
    /// default).
    pub shard_timeout_ms: u64,
    /// Deterministic chaos-testing plan loaded from `--fault-plan PATH`:
    /// worker faults ship to the out-of-process executor, persistence
    /// faults to the run directory.
    pub fault_plan: Option<FaultPlan>,
}

impl Default for ExpOptions {
    fn default() -> Self {
        ExpOptions {
            programs: 150,
            seed: 42,
            shards: 1,
            epochs: 4,
            workers: default_workers(),
            backend: CliBackend::Virtual,
            metrics: true,
            trace: false,
            run_dir: None,
            executor: CliExecutor::InProcess,
            worker_procs: 0,
            listen: None,
            spawn_workers: true,
            max_dispatch_attempts: 0,
            shard_timeout_ms: 0,
            fault_plan: None,
        }
    }
}

impl ExpOptions {
    /// Parse options from an iterator of CLI arguments (excluding argv\[0\]).
    /// Unknown arguments are rejected with an error message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut opts = ExpOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--paper" => opts.programs = 1_000,
                "--programs" => {
                    let v = iter.next().ok_or("--programs needs a value")?;
                    opts.programs = v.parse().map_err(|_| format!("invalid --programs {v}"))?;
                }
                "--seed" => {
                    let v = iter.next().ok_or("--seed needs a value")?;
                    opts.seed = v.parse().map_err(|_| format!("invalid --seed {v}"))?;
                }
                "--shards" => {
                    let v = iter.next().ok_or("--shards needs a value")?;
                    opts.shards = v.parse().map_err(|_| format!("invalid --shards {v}"))?;
                }
                "--epochs" => {
                    let v = iter.next().ok_or("--epochs needs a value")?;
                    opts.epochs = v.parse().map_err(|_| format!("invalid --epochs {v}"))?;
                }
                "--workers" => {
                    let v = iter.next().ok_or("--workers needs a value")?;
                    opts.workers = v.parse().map_err(|_| format!("invalid --workers {v}"))?;
                }
                "--backend" => {
                    let v = iter.next().ok_or("--backend needs a value")?;
                    opts.backend = match v.as_str() {
                        "virtual" => CliBackend::Virtual,
                        "extcc" => CliBackend::Extcc,
                        other => return Err(format!("invalid --backend `{other}`")),
                    };
                }
                "--executor" => {
                    let v = iter.next().ok_or("--executor needs a value")?;
                    opts.executor = match v.as_str() {
                        "in-process" => CliExecutor::InProcess,
                        "process-pool" => CliExecutor::ProcessPool,
                        "remote" => CliExecutor::Remote,
                        other => return Err(format!("invalid --executor `{other}`")),
                    };
                }
                "--worker-procs" => {
                    let v = iter.next().ok_or("--worker-procs needs a value")?;
                    opts.worker_procs =
                        v.parse().map_err(|_| format!("invalid --worker-procs {v}"))?;
                }
                "--listen" => {
                    let v = iter.next().ok_or("--listen needs an address")?;
                    opts.listen = Some(v);
                }
                "--no-spawn-workers" => opts.spawn_workers = false,
                "--max-dispatch-attempts" => {
                    let v = iter.next().ok_or("--max-dispatch-attempts needs a value")?;
                    opts.max_dispatch_attempts =
                        v.parse().map_err(|_| format!("invalid --max-dispatch-attempts {v}"))?;
                    if opts.max_dispatch_attempts == 0 {
                        return Err("--max-dispatch-attempts must be at least 1".into());
                    }
                }
                "--shard-timeout-ms" => {
                    let v = iter.next().ok_or("--shard-timeout-ms needs a value")?;
                    opts.shard_timeout_ms =
                        v.parse().map_err(|_| format!("invalid --shard-timeout-ms {v}"))?;
                    if opts.shard_timeout_ms == 0 {
                        return Err("--shard-timeout-ms must be positive".into());
                    }
                }
                "--fault-plan" => {
                    let v = iter.next().ok_or("--fault-plan needs a path")?;
                    let text = std::fs::read_to_string(&v)
                        .map_err(|e| format!("cannot read --fault-plan {v}: {e}"))?;
                    let plan: FaultPlan = serde_json::from_str(&text)
                        .map_err(|e| format!("cannot parse --fault-plan {v}: {e}"))?;
                    opts.fault_plan = Some(plan);
                }
                "--trace" => opts.trace = true,
                "--no-metrics" => opts.metrics = false,
                "--run-dir" => {
                    let v = iter.next().ok_or("--run-dir needs a path")?;
                    opts.run_dir = Some(PathBuf::from(v));
                }
                "--help" | "-h" => {
                    return Err("usage: [--programs N] [--paper] [--seed S] \
                         [--shards K] [--epochs E] [--workers W] \
                         [--backend virtual|extcc] \
                         [--run-dir PATH] [--trace] [--no-metrics] \
                         [--executor in-process|process-pool|remote] [--worker-procs N] \
                         [--listen ADDR] [--no-spawn-workers] \
                         [--max-dispatch-attempts N] [--shard-timeout-ms N] \
                         [--fault-plan PATH]"
                        .into())
                }
                other => return Err(format!("unknown argument `{other}`")),
            }
        }
        if opts.programs == 0 {
            return Err("--programs must be positive".into());
        }
        if opts.shards == 0 {
            return Err("--shards must be positive".into());
        }
        if opts.epochs == 0 {
            return Err("--epochs must be positive".into());
        }
        Ok(opts)
    }

    /// Parse from the process environment.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(2);
            }
        }
    }

    /// Resolve the selected backend into a campaign spec. `--backend
    /// extcc` probes this machine for host compilers; differential
    /// testing needs at least two of them.
    pub fn resolve_backend(&self) -> Result<BackendSpec, String> {
        match self.backend {
            CliBackend::Virtual => Ok(BackendSpec::Virtual),
            CliBackend::Extcc => match ExternalBackendSpec::detect() {
                Some(spec) if spec.has_differential_pair() => Ok(BackendSpec::External(spec)),
                Some(spec) => Err(format!(
                    "--backend extcc needs at least two host compilers for differential \
                     testing, but only {} responded ({}); install gcc and clang",
                    spec.compilers.len(),
                    spec.describe()
                )),
                None => {
                    Err("--backend extcc: no host compilers (gcc/clang) detected on this machine"
                        .to_string())
                }
            },
        }
    }

    /// Resolve the backend once for this process (exiting with a clear
    /// message on `--backend extcc` without enough host compilers — this
    /// helper backs the experiment binaries), so multi-approach suites
    /// probe the toolchain a single time and every campaign pins the
    /// identical spec.
    fn resolve_backend_or_exit(&self) -> BackendSpec {
        match self.resolve_backend() {
            Ok(backend) => backend,
            Err(msg) => {
                eprintln!("[llm4fp-bench] {msg}");
                std::process::exit(2);
            }
        }
    }

    /// Campaign configuration for one approach with an already-resolved
    /// backend spec.
    pub fn campaign_config_with(
        &self,
        approach: ApproachKind,
        backend: BackendSpec,
    ) -> CampaignConfig {
        CampaignConfig::new(approach)
            .with_budget(self.programs)
            .with_seed(self.seed)
            .with_backend(backend)
    }

    /// Campaign configuration for one approach under these options.
    /// With `--backend extcc`, missing host compilers exit the process
    /// with a clear message.
    pub fn campaign_config(&self, approach: ApproachKind) -> CampaignConfig {
        self.campaign_config_with(approach, self.resolve_backend_or_exit())
    }

    /// The telemetry features these options select. `--trace` implies
    /// metrics (span histograms are counters' siblings); `--no-metrics`
    /// without `--trace` turns collection off entirely.
    pub fn telemetry_spec(&self) -> TelemetrySpec {
        if self.trace {
            TelemetrySpec::TRACE
        } else if self.metrics {
            TelemetrySpec::METRICS
        } else {
            TelemetrySpec::OFF
        }
    }

    /// Orchestrator options for these CLI options.
    pub fn orchestrator_options(&self) -> OrchestratorOptions {
        OrchestratorOptions {
            workers: self.workers,
            cache: true,
            epochs: self.epochs,
            run_dir: self.run_dir.clone(),
            telemetry: self.telemetry_spec(),
            persist_faults: self
                .fault_plan
                .as_ref()
                .map(|plan| plan.persist.clone())
                .unwrap_or_default(),
        }
    }

    /// The out-of-process executor's settings these options select, or
    /// `None` for the orchestrator's in-process default. Both
    /// `--executor process-pool` and `--executor remote` land here, so
    /// identical flags configure identical executors: the worker flags,
    /// the supervision knobs (`--max-dispatch-attempts`,
    /// `--shard-timeout-ms` as the dispatch lease) and the worker half of
    /// any `--fault-plan`.
    pub fn supervision_config(&self) -> Option<SupervisionConfig> {
        if self.executor == CliExecutor::InProcess {
            return None;
        }
        let mut config = SupervisionConfig {
            worker_procs: match (self.spawn_workers, self.worker_procs) {
                (false, _) => 0,
                (true, 0) => default_workers(),
                (true, procs) => procs,
            },
            faults: self.fault_plan.clone().unwrap_or_default(),
            ..SupervisionConfig::default()
        };
        if let Some(addr) = &self.listen {
            config.listen = addr.clone();
        }
        if self.max_dispatch_attempts != 0 {
            config.max_dispatch_attempts = self.max_dispatch_attempts;
        }
        if self.shard_timeout_ms != 0 {
            config.lease_timeout = Duration::from_millis(self.shard_timeout_ms);
        }
        Some(config)
    }

    /// The shard transport these options select, or `None` for the
    /// orchestrator's in-process default.
    pub fn shard_executor(&self) -> Option<Arc<dyn ShardExecutor>> {
        let config = self.supervision_config()?;
        Some(Arc::new(WorkerExecutor::new(config)))
    }
}

fn log_stats(approach: ApproachKind, orchestrated: &OrchestratedResult) {
    eprintln!("[llm4fp-bench] {}: {}", approach.name(), orchestrated.stats.summary_line());
}

/// Run one campaign for the given approach through the orchestrator.
/// With `--run-dir` the run persists (and resumes) there, including the
/// telemetry flight recorders when enabled.
pub fn run_campaign(opts: &ExpOptions, approach: ApproachKind) -> CampaignResult {
    eprintln!(
        "[llm4fp-bench] running {} campaign: {} programs, seed {}, {} shard(s), {} epoch(s)",
        approach.name(),
        opts.programs,
        opts.seed,
        opts.shards,
        opts.epochs
    );
    let mut builder = Orchestrator::new(opts.campaign_config(approach))
        .options(opts.orchestrator_options())
        .shards(opts.shards);
    if let Some(executor) = opts.shard_executor() {
        builder = builder.executor(executor);
    }
    let orchestrated = builder.run().unwrap_or_else(|e| {
        eprintln!("[llm4fp-bench] campaign failed: {e}");
        std::process::exit(1);
    });
    log_stats(approach, &orchestrated);
    orchestrated.result
}

/// Run the Varity and LLM4FP campaigns (the pair most tables compare),
/// scheduled concurrently over one worker pool.
pub fn run_varity_and_llm4fp(opts: &ExpOptions) -> (CampaignResult, CampaignResult) {
    let mut results = run_suite(opts, &[ApproachKind::Varity, ApproachKind::Llm4Fp]).into_iter();
    (results.next().expect("varity result"), results.next().expect("llm4fp result"))
}

/// Run all four approaches in Table 2 order, scheduled concurrently over
/// one worker pool.
pub fn run_all_approaches(opts: &ExpOptions) -> Vec<CampaignResult> {
    run_suite(opts, &ApproachKind::ALL)
}

fn run_suite(opts: &ExpOptions, approaches: &[ApproachKind]) -> Vec<CampaignResult> {
    eprintln!(
        "[llm4fp-bench] scheduling {} campaigns: {} programs each, seed {}, {} shard(s), \
         {} epoch(s), {} workers",
        approaches.len(),
        opts.programs,
        opts.seed,
        opts.shards,
        opts.epochs,
        opts.workers
    );
    // One probe, one pinned spec for the whole suite.
    let backend = opts.resolve_backend_or_exit();
    let configs: Vec<CampaignConfig> =
        approaches.iter().map(|&a| opts.campaign_config_with(a, backend.clone())).collect();
    let mut options = opts.orchestrator_options();
    if let Some(dir) = options.run_dir.take() {
        // A run directory records ONE campaign (its manifest pins one
        // config); the scheduler executes suites in memory. Say so
        // instead of silently dropping the flag. Telemetry itself still
        // applies — per-campaign summaries land in the printed stats.
        eprintln!(
            "[llm4fp-bench] note: --run-dir {} ignored for a multi-campaign suite; \
             persistence and the metrics.json/trace.jsonl flight recorders apply to \
             single-campaign binaries (e.g. exp_table3)",
            dir.display()
        );
    }
    let mut scheduler = Scheduler::new(options).shards(opts.shards);
    if let Some(executor) = opts.shard_executor() {
        scheduler = scheduler.executor(executor);
    }
    let suite = scheduler.run(&configs).unwrap_or_else(|e| {
        eprintln!("[llm4fp-bench] suite failed: {e}");
        std::process::exit(1);
    });
    approaches
        .iter()
        .zip(suite)
        .map(|(&approach, orchestrated)| {
            log_stats(approach, &orchestrated);
            orchestrated.result
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn option_parsing_handles_all_flags() {
        // A real fault-plan file for --fault-plan to load.
        let plan_path = std::env::temp_dir()
            .join(format!("llm4fp-bench-fault-plan-{}.json", std::process::id()));
        std::fs::write(
            &plan_path,
            r#"{"first_worker":[{"CrashAtJob":1}],"persist":[{"TornWrite":"checkpoint"}]}"#,
        )
        .unwrap();
        let opts = ExpOptions::parse(
            [
                "--programs",
                "25",
                "--seed",
                "7",
                "--shards",
                "4",
                "--epochs",
                "2",
                "--workers",
                "3",
                "--backend",
                "extcc",
                "--trace",
                "--run-dir",
                "/tmp/llm4fp-run",
                "--executor",
                "process-pool",
                "--worker-procs",
                "6",
                "--max-dispatch-attempts",
                "5",
                "--shard-timeout-ms",
                "2500",
                "--fault-plan",
                plan_path.to_str().unwrap(),
                "--listen",
                "127.0.0.1:9911",
                "--no-spawn-workers",
            ]
            .map(String::from),
        )
        .unwrap();
        std::fs::remove_file(&plan_path).ok();
        let expected_plan = FaultPlan {
            first_worker: vec![llm4fp_orchestrator::WorkerFault::CrashAtJob(1)],
            persist: vec![llm4fp_orchestrator::PersistFault::TornWrite("checkpoint".into())],
            ..FaultPlan::default()
        };
        assert_eq!(
            opts,
            ExpOptions {
                programs: 25,
                seed: 7,
                shards: 4,
                epochs: 2,
                workers: 3,
                backend: CliBackend::Extcc,
                metrics: true,
                trace: true,
                run_dir: Some(PathBuf::from("/tmp/llm4fp-run")),
                executor: CliExecutor::ProcessPool,
                worker_procs: 6,
                max_dispatch_attempts: 5,
                shard_timeout_ms: 2500,
                fault_plan: Some(expected_plan.clone()),
                listen: Some("127.0.0.1:9911".to_string()),
                spawn_workers: false,
            }
        );
        let options = opts.orchestrator_options();
        assert_eq!(options.persist_faults, expected_plan.persist);
        assert_eq!(opts.telemetry_spec(), TelemetrySpec::TRACE);
        assert!(opts.shard_executor().is_some(), "process-pool selects an executor");
        assert!(ExpOptions::default().shard_executor().is_none(), "in-process is the default");
        let remote = ExpOptions::parse(
            ["--executor", "remote", "--listen", "127.0.0.1:0"].map(String::from),
        )
        .unwrap();
        assert_eq!(
            remote.supervision_config().unwrap().worker_procs,
            default_workers(),
            "--worker-procs defaults to the available parallelism"
        );
        assert_eq!(remote.executor, CliExecutor::Remote);
        assert_eq!(remote.listen.as_deref(), Some("127.0.0.1:0"));
        assert!(remote.shard_executor().is_some(), "remote selects an executor");
        assert!(ExpOptions::parse(["--executor".to_string(), "bogus".to_string()]).is_err());
        let quiet = ExpOptions::parse(["--no-metrics".to_string()]).unwrap();
        assert_eq!(quiet.telemetry_spec(), TelemetrySpec::OFF);
        assert_eq!(ExpOptions::default().telemetry_spec(), TelemetrySpec::METRICS);
        assert!(ExpOptions::parse(["--backend".to_string(), "bogus".to_string()]).is_err());
        let paper = ExpOptions::parse(["--paper".to_string()]).unwrap();
        assert_eq!(paper.programs, 1_000);
        assert!(ExpOptions::parse(["--programs".to_string(), "zero".to_string()]).is_err());
        assert!(ExpOptions::parse(["--bogus".to_string()]).is_err());
        for retired in [
            "--no-seal-opt",
            "--threads",
            "--workers-addr",
            "--process-slots",
            "--on-shard-failure",
            "--fallback-in-process",
            "--max-frame-len",
        ] {
            assert_eq!(
                ExpOptions::parse([retired.to_string()]),
                Err(format!("unknown argument `{retired}`"))
            );
        }
        assert!(ExpOptions::parse(["--programs".to_string(), "0".to_string()]).is_err());
        assert!(ExpOptions::parse(["--shards".to_string(), "0".to_string()]).is_err());
        assert!(ExpOptions::parse(["--epochs".to_string(), "0".to_string()]).is_err());
        assert!(
            ExpOptions::parse(["--max-dispatch-attempts".to_string(), "0".to_string()]).is_err(),
            "a zero dispatch budget is rejected at the CLI boundary"
        );
        assert!(ExpOptions::parse(["--shard-timeout-ms".to_string(), "0".to_string()]).is_err());
        assert!(
            ExpOptions::parse(["--fault-plan".to_string(), "/nonexistent/plan.json".to_string()])
                .is_err(),
            "an unreadable fault plan is a parse error, not a silent no-op"
        );
        assert_eq!(ExpOptions::parse(std::iter::empty::<String>()).unwrap(), ExpOptions::default());
    }

    #[test]
    fn both_executor_spellings_configure_the_same_executor() {
        let plan_path = std::env::temp_dir()
            .join(format!("llm4fp-bench-spelling-plan-{}.json", std::process::id()));
        std::fs::write(&plan_path, r#"{"every_worker":[{"CrashOnShard":2}]}"#).unwrap();
        let flags = |executor: &str| {
            ExpOptions::parse(
                [
                    "--executor",
                    executor,
                    "--worker-procs",
                    "3",
                    "--listen",
                    "127.0.0.1:0",
                    "--max-dispatch-attempts",
                    "5",
                    "--shard-timeout-ms",
                    "2500",
                    "--fault-plan",
                    plan_path.to_str().unwrap(),
                ]
                .map(String::from),
            )
            .unwrap()
        };
        let pool = flags("process-pool").supervision_config().expect("an executor");
        let remote = flags("remote").supervision_config().expect("an executor");
        std::fs::remove_file(&plan_path).ok();
        assert_eq!(pool, remote, "the spellings differ in name only");
        assert_eq!(
            pool,
            SupervisionConfig {
                worker_procs: 3,
                listen: "127.0.0.1:0".into(),
                lease_timeout: Duration::from_millis(2500),
                max_dispatch_attempts: 5,
                faults: FaultPlan {
                    every_worker: vec![llm4fp_orchestrator::WorkerFault::CrashOnShard(2)],
                    ..FaultPlan::default()
                },
                ..SupervisionConfig::default()
            }
        );
        // `--no-spawn-workers` applies to both spellings too.
        for executor in ["process-pool", "remote"] {
            let external =
                ExpOptions::parse(["--executor", executor, "--no-spawn-workers"].map(String::from))
                    .unwrap();
            assert_eq!(external.supervision_config().unwrap().worker_procs, 0, "{executor}");
        }
        assert_eq!(ExpOptions::default().supervision_config(), None);
    }

    #[test]
    fn campaign_config_reflects_options() {
        let opts = ExpOptions {
            programs: 9,
            seed: 123,
            shards: 2,
            epochs: 1,
            workers: 2,
            ..ExpOptions::default()
        };
        let cfg = opts.campaign_config(ApproachKind::GrammarGuided);
        assert_eq!(cfg.programs, 9);
        assert_eq!(cfg.seed, 123);
        assert_eq!(cfg.threads, CampaignConfig::new(ApproachKind::GrammarGuided).threads);
        assert_eq!(cfg.approach, ApproachKind::GrammarGuided);
    }

    #[test]
    fn tiny_experiment_pipeline_end_to_end() {
        let opts = ExpOptions {
            programs: 6,
            seed: 1,
            shards: 2,
            epochs: 2,
            workers: 2,
            ..ExpOptions::default()
        };
        let results = run_all_approaches(&opts);
        assert_eq!(results.len(), 4);
        for r in &results {
            assert_eq!(r.aggregates.programs, 6);
        }
    }

    #[test]
    fn single_shard_run_campaign_matches_sequential() {
        let opts = ExpOptions {
            programs: 10,
            seed: 2,
            shards: 1,
            epochs: 4,
            workers: 4,
            ..ExpOptions::default()
        };
        let orchestrated = run_campaign(&opts, ApproachKind::Varity);
        let sequential = llm4fp::Campaign::new(opts.campaign_config(ApproachKind::Varity)).run();
        assert_eq!(orchestrated.records, sequential.records);
        assert_eq!(orchestrated.aggregates, sequential.aggregates);
    }
}
