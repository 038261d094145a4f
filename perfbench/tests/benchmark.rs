//! The benchmark's own checks, at small budgets. The pool workloads spawn
//! the worker daemon next to the test binary, so build it first:
//!
//! ```sh
//! cargo build --release --manifest-path perfbench/Cargo.toml -p llm4fp-orchestrator --bins
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use std::collections::BTreeSet;

use llm4fp::BackendSpec;
use llm4fp_orchestrator::{plan_epoch_segments, plan_shards};
use llm4fp_perfbench::workload::{self, ScratchDir, Workload, EPOCHS, SETUP_BUDGET, SHARDS};
use llm4fp_perfbench::{layers, report::Report};

const SMALL: usize = 64;

/// The metric names `BENCHMARK.json` declares: (end to end, per layer).
fn declared() -> (BTreeSet<String>, BTreeSet<String>) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let json = serde_json::parse(&text).expect("BENCHMARK.json parses");
    let names = |key: &str| -> BTreeSet<String> {
        let list = json.as_obj().and_then(|o| o.get(key)).and_then(|v| v.as_arr());
        list.expect("metric list")
            .iter()
            .map(|m| {
                let name = m.as_obj().and_then(|o| o.get("name")).and_then(|n| n.as_str());
                name.expect("metric name").to_string()
            })
            .collect()
    };
    (names("end_to_end"), names("per_layer"))
}

fn names(metrics: &[llm4fp_perfbench::report::Metric]) -> BTreeSet<String> {
    metrics.iter().map(|m| m.name.clone()).collect()
}

/// The last printed line is the JSON result, and it parses.
fn assert_json_last(report: &Report) {
    let rendered = report.render();
    let last = rendered.lines().last().expect("output");
    let json = serde_json::parse(last).expect("last line is JSON");
    let keys: Vec<&String> = json.as_obj().expect("object").keys().collect();
    assert_eq!(keys.len(), 4, "{last}");
}

#[test]
fn every_printed_metric_is_declared() {
    let (end_to_end, per_layer) = declared();
    for workload in Workload::ALL {
        let report = workload::measure(workload, 3, 0, SMALL).expect("workload runs");
        assert!(report.correct(), "{} failed its output check", workload.name());
        assert_eq!(names(&report.metrics), end_to_end, "{}", workload.name());
        assert!(names(&report.printed).is_subset(&per_layer), "{}", workload.name());
        assert_json_last(&report);
    }
    let traced = layers::measure(3, |_| SMALL).expect("traced run");
    assert!(traced.correct(), "the traced run failed a check");
    assert_eq!(names(&traced.metrics), per_layer);
    assert!(traced.printed.is_empty());
    assert_json_last(&traced);
}

#[test]
fn setup_runs_one_program_per_shard_epoch() {
    let scratch = ScratchDir::new("setup-test").expect("scratch dir");
    for workload in Workload::ALL {
        let opts = workload.options(9, SETUP_BUDGET, &scratch.path().join("run"));
        for &approach in workload.approaches() {
            let config = opts.campaign_config_with(approach, BackendSpec::Virtual);
            let specs = plan_shards(&config, opts.shards);
            assert_eq!(specs.len(), SHARDS);
            for spec in specs {
                assert_eq!(plan_epoch_segments(spec.budget, opts.epochs), vec![1; EPOCHS]);
            }
        }
        let iteration = workload::run(workload, &opts).expect("set-up run");
        assert_eq!(iteration.programs, SHARDS * EPOCHS * workload.approaches().len());
        let reference = workload::reference(workload, 9, SETUP_BUDGET).unwrap();
        assert!(workload::matches(&iteration, &reference), "{}", workload.name());
    }
}
