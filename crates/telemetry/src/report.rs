//! The sink-facing shapes: the deterministic `metrics.json` report and
//! the compact summary embedded in `RunStats`.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize, Value};

/// The merged counter set written to `metrics.json`. For a fixed
/// `(config, K, E)` this is byte-identical across worker counts — the
/// flight recorder can be diffed between runs like any other campaign
/// artifact.
///
/// Serialized as a real JSON object (sorted keys), not the map-as-pairs
/// encoding derived containers use, so the recorder stays greppable.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsReport {
    /// Merged counters: plain counters summed across lanes, keyed
    /// counters deduplicated by id then summed.
    pub counters: BTreeMap<String, u64>,
}

impl MetricsReport {
    /// The counter's merged value, zero when never recorded.
    pub fn get(&self, key: &str) -> u64 {
        self.counters.get(key).copied().unwrap_or(0)
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty()
    }

    /// Sum of every counter sharing `prefix` — e.g. all
    /// `extcc.err.` taxonomy buckets.
    pub fn prefix_sum(&self, prefix: &str) -> u64 {
        self.counters.iter().filter(|(k, _)| k.starts_with(prefix)).map(|(_, v)| v).sum()
    }
}

impl Serialize for MetricsReport {
    fn to_value(&self) -> Value {
        let counters =
            self.counters.iter().map(|(k, v)| (k.clone(), v.to_value())).collect::<serde::Map>();
        let mut object = serde::Map::new();
        object.insert("counters".to_string(), Value::Obj(counters));
        Value::Obj(object)
    }
}

impl Deserialize for MetricsReport {
    fn from_value(v: &Value) -> Result<Self, serde::Error> {
        let object = v.as_obj().ok_or_else(|| serde::Error::msg("expected metrics object"))?;
        let counters = object
            .get("counters")
            .and_then(Value::as_obj)
            .ok_or_else(|| serde::Error::msg("expected counters object"))?;
        let counters = counters
            .iter()
            .map(|(k, v)| Ok((k.clone(), u64::from_value(v)?)))
            .collect::<Result<BTreeMap<_, _>, serde::Error>>()?;
        Ok(MetricsReport { counters })
    }
}

/// Compact telemetry roll-up carried in `RunStats` and `summary.json`.
/// Counter-derived fields are deterministic; the `*_time` fields are
/// wall clock and describe work *computed in this invocation* (a resumed
/// run reports only what it recomputed).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetrySummary {
    /// Distinct counter keys in the merged report.
    pub counter_keys: u64,
    /// Trace events recorded (zero unless trace mode).
    pub trace_events: u64,
    /// Programs the seal pipeline refused for at least one config.
    pub seal_refusals: u64,
    /// Config slots that fell back to the reference interpreter.
    pub interpreter_fallbacks: u64,
    /// Comparisons that observed differing bit patterns.
    pub discrepancies: u64,
    /// Total time inside the seal phase, summed across lanes.
    pub seal_time: Duration,
    /// Total time inside matrix execution, summed across lanes.
    pub exec_time: Duration,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn metrics_report_serializes_as_a_sorted_json_object() {
        let mut report = MetricsReport::default();
        report.counters.insert("b.two".to_string(), 2);
        report.counters.insert("a.one".to_string(), 1);
        let text = serde_json::to_string(&report).unwrap();
        assert_eq!(text, "{\"counters\":{\"a.one\":1,\"b.two\":2}}");
        let back: MetricsReport = serde_json::from_str(&text).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn prefix_sum_aggregates_taxonomy_buckets() {
        let mut report = MetricsReport::default();
        report.counters.insert("extcc.err.timeout-compile".to_string(), 2);
        report.counters.insert("extcc.err.timeout-run".to_string(), 3);
        report.counters.insert("extcc.compiles".to_string(), 99);
        assert_eq!(report.prefix_sum("extcc.err.timeout-"), 5);
        assert_eq!(report.get("missing"), 0);
    }

    #[test]
    fn summary_round_trips_through_json() {
        let summary = TelemetrySummary {
            counter_keys: 12,
            trace_events: 340,
            seal_refusals: 2,
            interpreter_fallbacks: 6,
            discrepancies: 17,
            seal_time: Duration::from_micros(1234),
            exec_time: Duration::from_micros(5678),
        };
        let text = serde_json::to_string(&summary).unwrap();
        let back: TelemetrySummary = serde_json::from_str(&text).unwrap();
        assert_eq!(back, summary);
    }
}
