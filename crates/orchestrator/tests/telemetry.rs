//! Telemetry invariants: collection is pure observation (results are
//! bit-identical with tracing on or off), the merged `metrics.json`
//! flight recorder is byte-identical across worker counts and process
//! slots, and resume-from-partial-run behaves with telemetry files
//! already present in the run directory.

use std::path::PathBuf;

use llm4fp::{ApproachKind, CampaignConfig, CampaignResult};
use llm4fp_orchestrator::{Orchestrator, OrchestratorOptions, RunDir, RunManifest, Scheduler};
use llm4fp_telemetry::{keys, TelemetrySpec};

fn config(approach: ApproachKind, budget: usize, seed: u64) -> CampaignConfig {
    CampaignConfig::new(approach).with_budget(budget).with_seed(seed).with_threads(1)
}

fn options(workers: usize, epochs: usize, telemetry: TelemetrySpec) -> OrchestratorOptions {
    OrchestratorOptions { workers, epochs, telemetry, ..OrchestratorOptions::default() }
}

fn orchestrate(
    config: &CampaignConfig,
    shards: usize,
    opts: OrchestratorOptions,
) -> llm4fp_orchestrator::OrchestratedResult {
    Orchestrator::new(config.clone()).options(opts).shards(shards).run().unwrap()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("telemetry-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn assert_results_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.records, b.records, "{what}: records");
    assert_eq!(a.sources, b.sources, "{what}: sources");
    assert_eq!(a.successful_sources, b.successful_sources, "{what}: successful sources");
    assert_eq!(a.aggregates, b.aggregates, "{what}: aggregates");
    assert_eq!(a.generation_failures, b.generation_failures, "{what}: generation failures");
}

#[test]
fn results_are_bit_identical_with_telemetry_on_or_off() {
    for approach in [ApproachKind::Varity, ApproachKind::Llm4Fp] {
        let config = config(approach, 16, 33);
        for epochs in [1usize, 2] {
            let off = orchestrate(&config, 2, options(2, epochs, TelemetrySpec::OFF));
            assert!(off.stats.telemetry.is_none(), "telemetry off leaves no summary");
            for spec in [TelemetrySpec::METRICS, TelemetrySpec::TRACE] {
                let on = orchestrate(&config, 2, options(2, epochs, spec));
                assert_results_identical(
                    &on.result,
                    &off.result,
                    &format!("{approach:?} E={epochs} {spec:?}"),
                );
                let summary = on.stats.telemetry.expect("telemetry summary recorded");
                assert!(summary.counter_keys > 0, "counters were collected");
                assert_eq!(
                    summary.trace_events > 0,
                    spec.trace_enabled(),
                    "trace events exactly in trace mode"
                );
            }
        }
    }
}

#[test]
fn metrics_json_is_byte_identical_across_worker_counts() {
    let config = config(ApproachKind::Llm4Fp, 18, 9);
    let mut reference: Option<String> = None;
    for (tag, workers) in [("w1", 1usize), ("w4", 4)] {
        let root = temp_dir(&format!("workers-{tag}"));
        let orchestrated = orchestrate(
            &config,
            3,
            OrchestratorOptions {
                run_dir: Some(root.clone()),
                ..options(workers, 2, TelemetrySpec::METRICS)
            },
        );
        assert_eq!(orchestrated.stats.shards_computed, 3);
        let bytes = std::fs::read_to_string(root.join("metrics.json"))
            .expect("metrics.json written for a fully computed run");
        match &reference {
            None => reference = Some(bytes),
            Some(expected) => {
                assert_eq!(&bytes, expected, "metrics.json must not depend on worker count")
            }
        }
        let dir = RunDir::open(&root, &RunManifest::new(config.clone(), 3, 2)).unwrap();
        let report = dir.load_metrics().expect("metrics.json parses");
        assert_eq!(report.get(keys::PROGRAMS), 18, "every program counted once");
        assert!(report.get(keys::COMPARISONS) > 0, "comparisons recorded");
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn trace_runs_write_chrome_trace_lines_and_a_loadable_report() {
    let config = config(ApproachKind::Varity, 10, 5);
    let root = temp_dir("trace");
    let orchestrated = orchestrate(
        &config,
        2,
        OrchestratorOptions { run_dir: Some(root.clone()), ..options(2, 1, TelemetrySpec::TRACE) },
    );
    let summary = orchestrated.stats.telemetry.expect("summary present");
    assert!(summary.trace_events > 0);

    let dir = RunDir::open(&root, &RunManifest::new(config.clone(), 2, 1)).unwrap();
    let lines = dir.load_trace_lines().expect("trace.jsonl written");
    assert!(!lines.is_empty());
    let mut names = std::collections::BTreeSet::new();
    for line in &lines {
        let value = serde_json::parse(line).expect("every trace line is valid JSON");
        let obj = value.as_obj().expect("trace lines are objects");
        for field in ["name", "cat", "ph", "ts", "dur", "pid", "tid"] {
            assert!(obj.get(field).is_some(), "trace line missing {field}: {line}");
        }
        if let Some(serde_json::Value::Str(name)) = obj.get("name") {
            names.insert(name.clone());
        }
    }
    assert!(names.contains(keys::SPAN_RUN), "whole-run span recorded");
    assert!(names.contains(keys::SPAN_SHARD_RUN), "per-shard spans recorded");
    assert!(names.contains(keys::SPAN_PROGRAM), "per-program spans recorded");

    // The persisted summary carries the roll-up too.
    let stats = dir.load_summary().expect("summary.json written");
    assert_eq!(stats.telemetry, orchestrated.stats.telemetry);
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn resume_with_telemetry_files_present_stays_bit_identical() {
    let config = config(ApproachKind::Llm4Fp, 24, 14);
    let root = temp_dir("resume");
    let persisted = || OrchestratorOptions {
        run_dir: Some(root.clone()),
        ..options(2, 1, TelemetrySpec::TRACE)
    };
    let full = orchestrate(&config, 4, persisted());
    let metrics_before = std::fs::read_to_string(root.join("metrics.json")).unwrap();
    assert!(root.join("trace.jsonl").exists());

    // Interrupt: one shard recomputes while metrics.json and trace.jsonl
    // from the complete run sit in the directory.
    std::fs::remove_file(root.join("shards").join("shard-0002.jsonl")).unwrap();
    let resumed = orchestrate(&config, 4, persisted());
    assert_eq!(resumed.stats.shards_reused, 3);
    assert_eq!(resumed.stats.shards_computed, 1);
    assert_results_identical(&resumed.result, &full.result, "resume with telemetry files");

    // A partial recompute must not overwrite the complete run's metrics
    // (reused shards record nothing, so rewriting would under-count);
    // the wall-clock trace of the latest invocation is rewritten.
    let metrics_after = std::fs::read_to_string(root.join("metrics.json")).unwrap();
    assert_eq!(metrics_after, metrics_before, "metrics.json untouched by partial recompute");
    let dir = RunDir::open(&root, &RunManifest::new(config.clone(), 4, 1)).unwrap();
    let lines = dir.load_trace_lines().expect("trace.jsonl rewritten");
    assert!(
        lines.iter().any(|l| l.contains(keys::SPAN_SHARD_RUN)),
        "the recomputed shard traced its run"
    );

    // `Orchestrator::resume` (telemetry off by default) still reads the
    // directory fine and reproduces the result.
    let again = Orchestrator::resume(&root).unwrap();
    assert_eq!(again.stats.shards_reused, 4);
    assert_results_identical(&again.result, &full.result, "plain resume");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn scheduler_suites_report_per_campaign_telemetry_and_wall_times() {
    let configs: Vec<CampaignConfig> =
        [ApproachKind::Varity, ApproachKind::Llm4Fp].iter().map(|&a| config(a, 12, 8)).collect();

    let started = std::time::Instant::now();
    let suite =
        Scheduler::new(options(2, 2, TelemetrySpec::METRICS)).shards(2).run(&configs).unwrap();
    let suite_elapsed = started.elapsed();

    let off = Scheduler::new(options(2, 2, TelemetrySpec::OFF)).shards(2).run(&configs).unwrap();
    for (on, off) in suite.iter().zip(&off) {
        assert_results_identical(&on.result, &off.result, "scheduler telemetry on/off");
        assert!(off.stats.telemetry.is_none());
        let summary = on.stats.telemetry.expect("per-campaign telemetry summary");
        assert!(summary.counter_keys > 0);
        // Satellite fix: wall_time is the campaign's own first-start to
        // last-end window, not one suite-wide clock — it can never
        // exceed the whole suite's elapsed time.
        assert!(on.stats.wall_time <= suite_elapsed, "per-campaign wall within suite elapsed");
        assert!(on.stats.wall_time > std::time::Duration::ZERO);
    }
}

/// External-backend telemetry, hermetic via the `fakecc` mock toolchain.
#[cfg(unix)]
mod external_backend {
    use super::*;
    use std::path::Path;

    use llm4fp::{BackendSpec, ExternalBackendSpec};
    use llm4fp_extcc::fakecc;

    fn fake_config(dir: &Path, budget: usize, seed: u64) -> CampaignConfig {
        let spec = ExternalBackendSpec::new(fakecc::install_pair(dir).expect("install fakecc"));
        config(ApproachKind::Llm4Fp, budget, seed).with_backend(BackendSpec::External(spec))
    }

    #[test]
    fn external_metrics_json_is_byte_identical_across_worker_counts() {
        let fake = temp_dir("fakecc");
        let config = fake_config(&fake, 8, 7);
        let mut reference: Option<String> = None;
        for workers in [1usize, 4] {
            let root = temp_dir(&format!("ext-w{workers}"));
            let orchestrated = orchestrate(
                &config,
                2,
                OrchestratorOptions {
                    run_dir: Some(root.clone()),
                    ..options(workers, 1, TelemetrySpec::METRICS)
                },
            );
            assert_eq!(orchestrated.stats.shards_computed, 2);
            let bytes = std::fs::read_to_string(root.join("metrics.json")).unwrap();
            match &reference {
                None => {
                    // The recorder saw the external pipeline at all.
                    assert!(bytes.contains("extcc.compiles"), "extcc counters recorded");
                    reference = Some(bytes);
                }
                Some(expected) => {
                    assert_eq!(&bytes, expected, "metrics.json must not depend on the worker count")
                }
            }
            let _ = std::fs::remove_dir_all(&root);
        }
        let _ = std::fs::remove_dir_all(&fake);
    }
}
