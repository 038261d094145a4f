//! `trace_report` reads a run directory without changing it, so it may
//! report on a run dir that a campaign is still writing.

use std::fs;
use std::process::Command;

use llm4fp::{ApproachKind, CampaignConfig};
use llm4fp_orchestrator::Orchestrator;
use llm4fp_telemetry::TelemetrySpec;

#[test]
fn reports_leave_in_flight_temp_files_alone() {
    let root = std::env::temp_dir()
        .join("llm4fp-bench-tests")
        .join(format!("trace-report-{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let config =
        CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(12).with_seed(3).with_threads(1);
    Orchestrator::new(config)
        .shards(2)
        .epochs(2)
        .run_dir(&root)
        .telemetry(TelemetrySpec::METRICS)
        .run()
        .unwrap();
    // A live writer's temp file, between its write and its rename.
    let in_flight = root.join("checkpoints").join(".shard-0000-epoch-0001.json.999-0.tmp");
    fs::write(&in_flight, "{half").unwrap();

    let out = Command::new(env!("CARGO_BIN_EXE_trace_report")).arg(&root).output().unwrap();
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    assert!(String::from_utf8_lossy(&out.stdout).contains("metrics"), "the report read the dir");
    assert_eq!(
        fs::read_to_string(&in_flight).ok().as_deref(),
        Some("{half"),
        "the report swept a live writer's temp file"
    );
    let _ = fs::remove_dir_all(&root);
}
