//! napmon-obs: observability primitives for the napmon serving stack.
//!
//! The paper's premise is *operation-time* monitoring of a deployed
//! network; this crate makes the monitoring system observable in turn.
//! Three pieces, all pure `std`:
//!
//! - **[`MetricsRegistry`]** — named counters, gauges, and log2-bucketed
//!   [`LatencyHistogram`]s with lock-free hot paths. Histogram snapshots
//!   are plain data: mergeable across shards (associative + commutative)
//!   and serializable, with *exact* p50/p90/p99/p999 brackets
//!   ([`HistogramSnapshot::quantile_bounds`]).
//! - **Tracer** ([`TraceRing`]) — bounded per-thread seqlock-style span rings
//!   (drop-oldest, zero steady-state allocation) recording typed
//!   [`SpanKind`] spans correlated by a trace id threaded through the
//!   wire protocol, so one slow request can be reconstructed end to end.
//! - **Scrape surface** ([`ObsReport`]) — a versioned snapshot bundling
//!   the metrics, a Prometheus-style text exposition, the slow-request
//!   log, and recent spans; served by the wire `Metrics` opcode.
//!
//! ## Feature gating
//!
//! Metrics cells and report/snapshot types are always compiled: the
//! serving engine counts its verdicts, warnings, latencies and batch
//! sizes into a [`MetricsRegistry`] in every build. The *hot-path
//! probes* — [`record_span`], [`now_ns`], [`tracing_enabled`] — compile
//! to `#[inline(always)]` no-op shims unless the `probes` cargo feature
//! is on; downstream crates expose an `obs` feature that simply forwards
//! to `napmon-obs/probes`, so a single switch arms every instrumented
//! call site in the build.
//! With probes compiled in, recording still defaults *off* at runtime
//! until [`set_tracing`]`(true)`.

mod hist;
mod registry;
mod slow;
mod trace;

pub use hist::{
    bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram, NUM_BUCKETS, SUB_BITS,
    SUB_COUNT,
};
pub use registry::{
    global, Counter, Gauge, MetricsRegistry, MetricsSnapshot, METRICS_SCHEMA_VERSION,
};
pub use slow::{SlowLog, SlowRequest};
pub use trace::{
    mint_trace_id, now_ns, recent_spans, record_span, set_tracing, tracing_enabled, SpanKind,
    TraceEvent, TraceRing,
};

use serde::{Deserialize, Serialize};

/// Schema version stamped into every [`ObsReport`].
pub const OBS_REPORT_VERSION: u32 = 1;

/// The full scrape payload returned by the wire `Metrics` opcode.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ObsReport {
    /// Report schema version ([`OBS_REPORT_VERSION`] at capture time).
    pub schema_version: u32,
    /// Merged metrics: the capturing server's cells (its own registry
    /// and its backend's) plus the process-wide [`global`] registry.
    pub metrics: MetricsSnapshot,
    /// Prometheus-style text exposition of `metrics`.
    pub exposition: String,
    /// The slow-request log (last N over the configured threshold).
    pub slow_requests: Vec<SlowRequest>,
    /// Recently retained spans across all tracing threads (empty unless
    /// the `probes` feature is on and tracing is enabled).
    pub spans: Vec<TraceEvent>,
}

impl ObsReport {
    /// Builds a report from the caller's metrics snapshot (merged here
    /// with the global registry), a slow log, and the tracer's retained
    /// spans.
    #[must_use]
    pub fn capture(mut metrics: MetricsSnapshot, slow_log: &SlowLog) -> Self {
        metrics.merge(&global().snapshot());
        let exposition = metrics.render_text();
        ObsReport {
            schema_version: OBS_REPORT_VERSION,
            metrics,
            exposition,
            slow_requests: slow_log.snapshot(),
            spans: recent_spans(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_report_captures_and_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("wire.op.query").add(3);
        let slow = SlowLog::new(4, 0);
        slow.observe(9, "Query", 1234);
        let report = ObsReport::capture(reg.snapshot(), &slow);
        assert_eq!(report.schema_version, OBS_REPORT_VERSION);
        assert_eq!(report.metrics.counters["wire.op.query"], 3);
        assert!(report.exposition.contains("wire_op_query 3"));
        assert_eq!(report.slow_requests.len(), 1);
        let back: ObsReport = serde::from_value(serde::to_value(&report).unwrap()).unwrap();
        assert_eq!(back, report);
    }
}
