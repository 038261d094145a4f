//! Measurement helpers and the output format: process statistics read from
//! `/proc`, the result digest every run is checked with, medians, and the
//! printed metric lines plus the final JSON line.

use std::fmt::Write as _;
use std::path::Path;

use llm4fp::CampaignResult;

/// One named measurement with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Metric { name: name.into(), value, unit }
    }
}

/// Everything one benchmark run reports.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Programs the run attempted (measured iterations and checks).
    pub attempted: u64,
    /// Attempted programs that are missing from a result, belong to a
    /// quarantined shard, or belong to a run that failed its output check.
    pub failed: u64,
    /// Human-readable notes printed before the metric lines.
    pub notes: Vec<String>,
    /// Metrics printed and put in the JSON line.
    pub metrics: Vec<Metric>,
    /// Metrics printed only: they belong to one workload, while the JSON
    /// line carries the metrics every workload reports.
    pub printed: Vec<Metric>,
}

impl Report {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push(Metric::new(name, value, unit));
    }

    pub fn printed(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.printed.push(Metric::new(name, value, unit));
    }

    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Count `programs` attempted, of which all fail when `ok` is false.
    pub fn check(&mut self, programs: usize, ok: bool) {
        self.attempted += programs as u64;
        if !ok {
            self.failed += programs as u64;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The printed report: notes, one `metric <name> <value> <unit>` line
    /// per metric, the check line, and the JSON object as the last line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for note in &self.notes {
            let _ = writeln!(out, "{note}");
        }
        for m in self.metrics.iter().chain(&self.printed) {
            let _ = writeln!(out, "metric {:<34} {:>16.6} {}", m.name, m.value, m.unit);
        }
        let share =
            if self.attempted == 0 { 1.0 } else { self.failed as f64 / self.attempted as f64 };
        let _ = writeln!(
            out,
            "check correct={} attempted={} failed={} failed_share={share}",
            self.correct(),
            self.attempted,
            self.failed
        );
        let _ = writeln!(out, "{}", self.json());
        out
    }

    /// The result object: `correct`, `attempted`, `failed`, `metrics`.
    pub fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    json_number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// JSON has no NaN or infinity; a value that is not finite is a bug in
/// the measurement, reported as 0 so the JSON line stays parseable.
fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value:?}")
    } else {
        "0.0".to_string()
    }
}

/// Median of a non-empty sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 0 {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    } else {
        sorted[mid]
    }
}

/// Digest of what a campaign computed: records, aggregates and successful
/// sources. Wall-clock fields (`pipeline_time`) are excluded, so equal
/// digests mean bit-identical campaign outputs.
pub fn digest(result: &CampaignResult) -> u64 {
    let mut hash = Fnv::default();
    hash.write(serde_json::to_string(&result.records).expect("records serialize").as_bytes());
    hash.write(serde_json::to_string(&result.aggregates).expect("aggregates serialize").as_bytes());
    for source in &result.successful_sources {
        hash.write(source.as_bytes());
        hash.write(&[0]);
    }
    hash.0
}

/// 64-bit FNV-1a: stable across runs and builds, unlike `DefaultHasher`.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
}

/// Peak resident set of this process in MB (`VmHWM` of `/proc/self/status`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Linux reports `/proc` CPU times in `USER_HZ` ticks, 100 per second on
/// every architecture the kernel exposes to user space.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds of this process and of its reaped
/// children (the worker daemons of the out-of-process executors).
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after it are
    // space-separated, starting with the state (field 3).
    let after = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let fields: Vec<f64> =
        after.split_whitespace().skip(11).take(4).filter_map(|f| f.parse().ok()).collect();
    fields.iter().sum::<f64>() / USER_HZ
}

/// Total bytes of the regular files under `dir`.
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(_) => entry.metadata().map_or(0, |m| m.len()),
            Err(_) => 0,
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn medians_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn json_line_has_exactly_the_result_keys() {
        let mut report = Report::default();
        report.check(10, true);
        report.metric("setup_s", 0.25, "s");
        assert_eq!(
            report.json(),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}}}"
        );
        report.check(5, false);
        assert!(!report.correct());
    }

    #[test]
    fn process_statistics_are_readable() {
        assert!(peak_rss_mb() > 0.0);
        let started = std::time::Instant::now();
        while started.elapsed() < std::time::Duration::from_millis(100) {
            std::hint::black_box(started);
        }
        assert!(cpu_seconds() > 0.0);
    }
}
