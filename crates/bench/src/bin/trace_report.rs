//! Summarize a persisted run's telemetry flight recorders.
//!
//! Reads `summary.json`, `metrics.json` and (when present) `trace.jsonl`
//! from a run directory written with telemetry enabled (`--run-dir` plus
//! the default metrics mode or `--trace` on any experiment binary) and
//! prints the run's health at a glance: the bytes its frames and barrier
//! artifacts took, the merged counters, seal-refusal and
//! interpreter-fallback rates, the external-backend error taxonomy,
//! per-shard span imbalance and the top spans by total time.
//!
//! Usage:
//!
//! ```text
//! trace_report <run_dir> [--top N]
//! ```
//!
//! Exit codes: 0 ok, 2 usage error or unreadable run directory.

use std::collections::BTreeMap;
use std::process::exit;

use llm4fp_orchestrator::{RunDir, RunStats};
use llm4fp_telemetry::{keys, MetricsReport};

fn usage() -> ! {
    eprintln!("usage: trace_report <run_dir> [--top N]");
    exit(2)
}

fn main() {
    let mut root = None;
    let mut top = 10usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--top" => {
                let v = args.next().unwrap_or_else(|| usage());
                top = v.parse().unwrap_or_else(|_| usage());
            }
            "--help" | "-h" => usage(),
            other if other.starts_with("--") => usage(),
            other => {
                if root.replace(other.to_string()).is_some() {
                    usage();
                }
            }
        }
    }
    let Some(root) = root else { usage() };

    // Read only: a run dir a campaign is still writing keeps its
    // in-flight temp files.
    let (dir, manifest) = RunDir::inspect(&root).unwrap_or_else(|e| {
        eprintln!("trace_report: cannot read run dir {root}: {e}");
        exit(2)
    });

    println!("run directory: {root}");
    println!(
        "plan: {} program(s), {} shard(s), {} epoch(s), approach {}",
        manifest.config.programs,
        manifest.shards,
        manifest.epochs,
        manifest.config.approach.name()
    );

    match dir.load_summary() {
        Some(stats) => print_summary(&stats),
        None => println!("summary.json: absent (run incomplete?)"),
    }
    match dir.load_metrics() {
        Some(report) => print_metrics(&report, top),
        None => println!("metrics.json: absent (telemetry off, or a partially reused run)"),
    }
    match dir.load_trace_lines() {
        Some(lines) => print_trace(&lines, top),
        None => println!("trace.jsonl: absent (run without --trace)"),
    }
}

fn print_summary(stats: &RunStats) {
    println!("\n== summary.json ==");
    println!("{}", stats.summary_line());
    println!(
        "bytes: {} of wire frames, {} of checkpoints and pool",
        stats.frame_bytes, stats.checkpoint_bytes
    );
    if let Some(t) = &stats.telemetry {
        println!(
            "telemetry: {} counter key(s), {} trace event(s), {} seal refusal(s), \
             {} interpreter fallback(s), {} discrepancies",
            t.counter_keys,
            t.trace_events,
            t.seal_refusals,
            t.interpreter_fallbacks,
            t.discrepancies
        );
    }
}

fn rate(part: u64, whole: u64) -> String {
    if whole == 0 {
        "n/a".to_string()
    } else {
        format!("{:.2}%", 100.0 * part as f64 / whole as f64)
    }
}

fn print_metrics(report: &MetricsReport, top: usize) {
    println!("\n== metrics.json ==");
    let programs = report.get(keys::PROGRAMS);
    let refusals = report.get(keys::SEAL_REFUSALS);
    let fallbacks = report.get(keys::INTERPRETER_FALLBACKS);
    println!("programs: {programs}, comparisons: {}", report.get(keys::COMPARISONS));
    println!(
        "seal refusals: {refusals} ({} of programs), interpreter fallbacks: {fallbacks}",
        rate(refusals, programs)
    );
    println!(
        "discrepancies: {} across {} config pair(s)",
        report.get(keys::DISCREPANCIES),
        report.counters.keys().filter(|k| k.starts_with(keys::DISCREPANCY_PAIR_PREFIX)).count()
    );
    let spawns = report.get(keys::EXTCC_COMPILES) + report.get(keys::EXTCC_RUNS);
    if spawns > 0 {
        let errors = report.prefix_sum(keys::EXTCC_ERR_PREFIX);
        let timeouts = report.prefix_sum("extcc.err.timeout-");
        println!(
            "extcc: {} compile(s), {} run(s), {} error(s) ({} timeout rate)",
            report.get(keys::EXTCC_COMPILES),
            report.get(keys::EXTCC_RUNS),
            errors,
            rate(timeouts, spawns)
        );
    }
    println!("top counters:");
    let mut counters: Vec<(&String, &u64)> = report.counters.iter().collect();
    counters.sort_by(|a, b| b.1.cmp(a.1).then_with(|| a.0.cmp(b.0)));
    for (key, value) in counters.into_iter().take(top) {
        println!("  {value:>12}  {key}");
    }
}

/// One span name's aggregate across the trace.
#[derive(Default)]
struct SpanAgg {
    count: u64,
    total_micros: u64,
}

fn print_trace(lines: &[String], top: usize) {
    let mut by_name: BTreeMap<String, SpanAgg> = BTreeMap::new();
    let mut shard_micros: BTreeMap<u64, u64> = BTreeMap::new();
    let mut events = 0u64;
    for line in lines {
        if line.trim().is_empty() {
            continue;
        }
        let Ok(value) = serde_json::parse(line) else { continue };
        let Some(obj) = value.as_obj() else { continue };
        let field = |name: &str| -> Option<u64> {
            match obj.get(name) {
                Some(serde_json::Value::Num(n)) => Some(n.as_f64() as u64),
                _ => None,
            }
        };
        let name = match obj.get("name") {
            Some(serde_json::Value::Str(s)) => s.clone(),
            _ => continue,
        };
        let (Some(dur), Some(tid)) = (field("dur"), field("tid")) else { continue };
        events += 1;
        let agg = by_name.entry(name.clone()).or_default();
        agg.count += 1;
        agg.total_micros += dur;
        if name == keys::SPAN_SHARD_RUN {
            *shard_micros.entry(tid).or_insert(0) += dur;
        }
    }

    println!("\n== trace.jsonl ==");
    println!("{events} span event(s)");
    let mut spans: Vec<(&String, &SpanAgg)> = by_name.iter().collect();
    spans.sort_by(|a, b| b.1.total_micros.cmp(&a.1.total_micros).then_with(|| a.0.cmp(b.0)));
    println!("top spans by total time:");
    for (name, agg) in spans.into_iter().take(top) {
        println!("  {:>10.3}s  {:>8} call(s)  {name}", agg.total_micros as f64 / 1e6, agg.count);
    }
    if shard_micros.len() > 1 {
        let max = shard_micros.values().copied().max().unwrap_or(0);
        let sum: u64 = shard_micros.values().sum();
        let mean = sum / shard_micros.len() as u64;
        println!(
            "shard imbalance: slowest lane {:.3}s vs mean {:.3}s ({:.2}x) across {} lane(s)",
            max as f64 / 1e6,
            mean as f64 / 1e6,
            if mean == 0 { 1.0 } else { max as f64 / mean as f64 },
            shard_micros.len()
        );
    }
}
