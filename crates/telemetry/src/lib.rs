//! Deterministic structured tracing and metrics for campaign runs.
//!
//! The observability layer the orchestrator carries into production: span
//! guards, counters and fixed-bucket duration histograms collected per
//! shard *lane* and merged in shard-index order, so the aggregated
//! [`MetricsReport`] is a pure function of `(config, K, E)` — exactly like
//! campaign results themselves. Worker counts, process slots and thread
//! interleavings change wall-clock numbers (histograms, trace events)
//! but never a counter.
//!
//! Two invariants carry the whole design:
//!
//! * **Zero cost when disabled.** A disabled [`Telemetry`] handle is a
//!   `None`; every recording call is one branch and returns. No clocks
//!   are read, nothing allocates, no locks are taken. Gated benchmarks
//!   run with telemetry off and must not move.
//! * **Side-effect-free when enabled.** Telemetry observes the campaign,
//!   it never participates: no RNG draws, no changes to iteration order,
//!   no entries in checkpoints. Campaign results are bit-identical with
//!   tracing on or off.
//!
//! Determinism under the shared result cache needs one extra idea: which
//! programs hit vs. miss the cross-shard cache is racy (two shards can
//! test the same structure concurrently and both miss), so any counter
//! recorded *inside* computed work would vary with the worker count.
//! Compute-level counters therefore go through [`Telemetry::add_keyed`],
//! which dedups by a caller-chosen stable id (the program hash): however
//! many times a racy miss recomputes the same program, the merged report
//! counts it once. Campaign-level counters recorded from cached results
//! use plain [`Telemetry::add`] and are deterministic by construction.
//!
//! There is deliberately no global static sink — handles are threaded
//! explicitly so parallel test suites and multi-campaign schedulers
//! cannot cross-contaminate.

#![forbid(unsafe_code)]

mod collector;
mod report;

pub use collector::{
    Collector, CounterSnapshot, DurationHistogram, TelemetryHub, TraceEvent, HISTOGRAM_BUCKETS,
};
pub use report::{MetricsReport, TelemetrySummary};

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Serialize};

/// Well-known metric keys, shared by every instrumentation site so the
/// sink layer and `trace_report` agree on names. Dynamic keys (per
/// config-pair discrepancy counters, `ExtError` taxonomy buckets) extend
/// these prefixes.
pub mod keys {
    /// Programs that completed the differential pipeline (plain).
    pub const PROGRAMS: &str = "campaign.programs";
    /// Generation attempts that produced no valid program (plain).
    pub const GENERATION_FAILURES: &str = "campaign.generation_failures";
    /// Pairwise output comparisons performed (plain).
    pub const COMPARISONS: &str = "campaign.comparisons";
    /// Comparisons that observed differing bit patterns (plain).
    pub const DISCREPANCIES: &str = "campaign.discrepancies";
    /// Prefix for per-config-pair discrepancy counters:
    /// `campaign.discrepancies.<cc-a>-O<la>.vs.<cc-b>-O<lb>` (plain).
    pub const DISCREPANCY_PAIR_PREFIX: &str = "campaign.discrepancies.";
    /// Programs the seal pipeline refused for at least one config (keyed
    /// by program hash).
    pub const SEAL_REFUSALS: &str = "difftest.seal_refusals";
    /// Config slots that fell back to the reference interpreter after a
    /// seal refusal (keyed by program hash).
    pub const INTERPRETER_FALLBACKS: &str = "difftest.interpreter_fallbacks";
    /// External compiler processes spawned (keyed by program hash).
    pub const EXTCC_COMPILES: &str = "extcc.compiles";
    /// External binary processes spawned (keyed by program hash).
    pub const EXTCC_RUNS: &str = "extcc.runs";
    /// Prefix for `ExtError` taxonomy counters: `extcc.err.<taxonomy>`
    /// (keyed by program hash).
    pub const EXTCC_ERR_PREFIX: &str = "extcc.err.";

    /// Span: one program through generate + difftest (histogram/trace).
    pub const SPAN_PROGRAM: &str = "campaign.program";
    /// Span: seal the whole config matrix for one program.
    pub const SPAN_SEAL: &str = "difftest.seal";
    /// Span: execute the sealed matrix over every input set.
    pub const SPAN_EXECUTE: &str = "difftest.execute";
    /// Span: one shard's full run segment.
    pub const SPAN_SHARD_RUN: &str = "shard.run";
    /// Span: the single-threaded exchange between epochs.
    pub const SPAN_EXCHANGE: &str = "orchestrator.exchange";
    /// Span: the whole orchestrated run.
    pub const SPAN_RUN: &str = "orchestrator.run";
    /// Histogram: delay between pool start and a shard being picked up.
    pub const QUEUE_WAIT: &str = "pool.queue_wait";
    /// Histogram: external compile wall time (per process).
    pub const EXTCC_COMPILE_TIME: &str = "extcc.compile_time";
    /// Histogram: external run wall time (per process).
    pub const EXTCC_RUN_TIME: &str = "extcc.run_time";
}

/// Which telemetry features a run enables. The default is fully off —
/// existing callers and gated benchmarks see the no-op path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TelemetrySpec {
    /// Collect counters and histograms; persisted runs write
    /// `metrics.json`.
    pub metrics: bool,
    /// Also record span events; persisted runs write a Chrome
    /// `trace_event`-compatible `trace.jsonl`. Implies `metrics`.
    pub trace: bool,
}

impl TelemetrySpec {
    /// Everything off (the default).
    pub const OFF: TelemetrySpec = TelemetrySpec { metrics: false, trace: false };

    /// Counters and histograms only.
    pub const METRICS: TelemetrySpec = TelemetrySpec { metrics: true, trace: false };

    /// Counters, histograms and span events.
    pub const TRACE: TelemetrySpec = TelemetrySpec { metrics: true, trace: true };

    /// True if any collection happens at all.
    pub fn enabled(&self) -> bool {
        self.metrics || self.trace
    }

    /// True if span events are recorded.
    pub fn trace_enabled(&self) -> bool {
        self.trace
    }
}

/// A cheaply clonable recording handle. Disabled handles (the default)
/// are a single `None` and make every call a no-op; enabled handles
/// share one per-lane [`Collector`] issued by a [`TelemetryHub`].
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    collector: Option<Arc<Collector>>,
}

impl Telemetry {
    /// The no-op handle. Recording through it costs one branch.
    pub fn disabled() -> Telemetry {
        Telemetry { collector: None }
    }

    pub(crate) fn from_collector(collector: Arc<Collector>) -> Telemetry {
        Telemetry { collector: Some(collector) }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.collector.is_some()
    }

    /// Whether span events are recorded (trace mode).
    pub fn trace_enabled(&self) -> bool {
        self.collector.as_ref().is_some_and(|c| c.trace_enabled())
    }

    /// Increment a plain counter. Use only for values that are already
    /// deterministic (derived from cached/merged results).
    pub fn add(&self, key: &str, n: u64) {
        if let Some(collector) = &self.collector {
            collector.add(key, n);
        }
    }

    /// Increment a deduplicated counter: contributions with the same
    /// `(key, id)` collapse to one when lanes merge, making compute-level
    /// counts immune to racy cache misses recomputing a program.
    pub fn add_keyed(&self, key: &str, id: u64, n: u64) {
        if let Some(collector) = &self.collector {
            collector.add_keyed(key, id, n);
        }
    }

    /// Export this handle's counter state as a serializable
    /// [`CounterSnapshot`] — what an out-of-process worker ships home at
    /// the end of a shard segment. `None` for disabled handles.
    pub fn export(&self) -> Option<CounterSnapshot> {
        self.collector.as_ref().map(|c| c.export())
    }

    /// Fold a worker's exported snapshot into this lane: plain counters
    /// add, keyed counters union by id (first writer wins — every writer
    /// wrote the same value, the computation is deterministic per id).
    /// No-op on disabled handles.
    pub fn absorb(&self, snapshot: &CounterSnapshot) {
        if let Some(collector) = &self.collector {
            collector.absorb(snapshot);
        }
    }

    /// Record one duration observation into the key's fixed-bucket
    /// histogram. Wall-clock data: never merged into `metrics.json`.
    pub fn observe(&self, key: &str, duration: Duration) {
        if let Some(collector) = &self.collector {
            collector.observe(key, duration);
        }
    }

    /// Open a span guard: on drop it records the elapsed time under
    /// `name` (histogram always, trace event in trace mode). Disabled
    /// handles return an inert guard without reading the clock.
    pub fn span(&self, name: &'static str) -> Span {
        match &self.collector {
            Some(collector) => {
                Span { collector: Some(Arc::clone(collector)), name, start: Some(Instant::now()) }
            }
            None => Span { collector: None, name, start: None },
        }
    }
}

/// RAII span guard returned by [`Telemetry::span`]. Records on drop;
/// [`Span::finish`] drops it explicitly for readability at call sites.
#[must_use = "a span records when dropped; binding it to `_` drops immediately"]
#[derive(Debug)]
pub struct Span {
    collector: Option<Arc<Collector>>,
    name: &'static str,
    start: Option<Instant>,
}

impl Span {
    /// Explicitly end the span now.
    pub fn finish(self) {}
}

impl Drop for Span {
    fn drop(&mut self) {
        if let (Some(collector), Some(start)) = (self.collector.take(), self.start) {
            collector.record_span(self.name, start);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handles_are_inert() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        assert!(!tel.trace_enabled());
        tel.add("x", 1);
        tel.add_keyed("y", 7, 1);
        tel.observe("z", Duration::from_millis(1));
        tel.span("w").finish();
        // Nothing to assert beyond "does not panic": there is no sink.
    }

    #[test]
    fn spec_defaults_to_off_and_trace_implies_enabled() {
        assert_eq!(TelemetrySpec::default(), TelemetrySpec::OFF);
        assert!(!TelemetrySpec::OFF.enabled());
        assert!(TelemetrySpec::METRICS.enabled());
        assert!(!TelemetrySpec::METRICS.trace_enabled());
        assert!(TelemetrySpec::TRACE.enabled());
        assert!(TelemetrySpec::TRACE.trace_enabled());
    }

    #[test]
    fn counters_merge_in_lane_order_and_dedup_by_id() {
        for lanes in [1usize, 2, 4] {
            let hub = TelemetryHub::new(TelemetrySpec::METRICS);
            for lane in 0..lanes {
                let tel = hub.lane(lane);
                tel.add("campaign.programs", 10);
                // The same keyed contribution from every lane must count
                // once, regardless of how many lanes replayed it.
                tel.add_keyed("difftest.seal_refusals", 0xfeed, 2);
                tel.add_keyed("difftest.seal_refusals", lane as u64 + 1000, 1);
            }
            let report = hub.metrics();
            assert_eq!(report.get("campaign.programs"), 10 * lanes as u64);
            assert_eq!(report.get("difftest.seal_refusals"), 2 + lanes as u64);
        }
    }

    #[test]
    fn merged_reports_are_independent_of_recording_interleaving() {
        // Simulates the racy-cache scenario: lane 1 replays lane 0's
        // keyed work (both "missed"), plus recording order differs.
        let a = TelemetryHub::new(TelemetrySpec::METRICS);
        a.lane(0).add_keyed("k", 1, 5);
        a.lane(1).add_keyed("k", 2, 7);
        let b = TelemetryHub::new(TelemetrySpec::METRICS);
        b.lane(1).add_keyed("k", 2, 7);
        b.lane(0).add_keyed("k", 1, 5);
        b.lane(1).add_keyed("k", 1, 5); // racy duplicate computation
        assert_eq!(a.metrics(), b.metrics());
    }

    #[test]
    fn exported_snapshots_absorb_to_identical_metrics() {
        // The worker-daemon scenario: lane state exported in one hub
        // (the worker process), absorbed into another (the coordinator)
        // — merged metrics must match recording directly, including the
        // first-writer-wins dedup for keyed counters and plain-counter
        // summation across repeated segments.
        let direct = TelemetryHub::new(TelemetrySpec::METRICS);
        direct.lane(0).add("campaign.programs", 5);
        direct.lane(0).add("campaign.programs", 3);
        direct.lane(0).add_keyed("difftest.seal_refusals", 0xbeef, 2);
        direct.lane(1).add_keyed("difftest.seal_refusals", 0xbeef, 2);

        let coordinator = TelemetryHub::new(TelemetrySpec::METRICS);
        for (lane, adds) in [(0usize, [5u64, 3].as_slice()), (1, [].as_slice())] {
            let worker = TelemetryHub::new(TelemetrySpec::METRICS);
            let tel = worker.lane(0);
            for &n in adds {
                tel.add("campaign.programs", n);
            }
            tel.add_keyed("difftest.seal_refusals", 0xbeef, 2);
            let snapshot = tel.export().expect("enabled lane exports");
            coordinator.lane(lane).absorb(&snapshot);
            // Absorbing the same snapshot twice must not double keyed
            // contributions (stale answers are discarded upstream, but
            // keyed dedup is the second line of defence).
            assert!(!snapshot.is_empty());
        }
        assert_eq!(coordinator.metrics(), direct.metrics());
    }

    #[test]
    fn disabled_handles_export_nothing_and_absorb_is_inert() {
        let tel = Telemetry::disabled();
        assert!(tel.export().is_none());
        tel.absorb(&CounterSnapshot::default()); // must not panic
        let mut snapshot = CounterSnapshot::default();
        assert!(snapshot.is_empty());
        snapshot.counters.insert("x".into(), 1);
        assert!(!snapshot.is_empty());
        tel.absorb(&snapshot);
    }

    #[test]
    fn spans_feed_histograms_and_trace_events() {
        let hub = TelemetryHub::new(TelemetrySpec::TRACE);
        let tel = hub.lane(0);
        assert!(tel.trace_enabled());
        tel.span("difftest.seal").finish();
        tel.span("difftest.seal").finish();
        let histogram = hub.histogram("difftest.seal").expect("histogram recorded");
        assert_eq!(histogram.count, 2);
        assert_eq!(hub.trace_events().len(), 2);
        assert!(hub.trace_events().iter().all(|e| e.name == "difftest.seal" && e.lane == 0));
    }

    #[test]
    fn metrics_mode_skips_trace_events_but_keeps_histograms() {
        let hub = TelemetryHub::new(TelemetrySpec::METRICS);
        let tel = hub.lane(0);
        assert!(!tel.trace_enabled());
        tel.span("difftest.execute").finish();
        assert_eq!(hub.histogram("difftest.execute").expect("histogram").count, 1);
        assert!(hub.trace_events().is_empty());
    }

    #[test]
    fn lane_handles_are_shared_per_index() {
        let hub = TelemetryHub::new(TelemetrySpec::METRICS);
        hub.lane(3).add("x", 1);
        hub.lane(3).add("x", 2);
        hub.lane(0).add("x", 4);
        assert_eq!(hub.metrics().get("x"), 7);
    }

    #[test]
    fn disabled_hub_issues_disabled_handles() {
        let hub = TelemetryHub::new(TelemetrySpec::OFF);
        assert!(!hub.enabled());
        assert!(!hub.lane(0).is_enabled());
        assert!(hub.metrics().is_empty());
    }
}
