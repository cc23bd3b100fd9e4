//! Online serving metrics: the engine's `napmon-obs` cells, and the
//! report read from them.
//!
//! Each engine owns one [`MetricsRegistry`] with four cells, resolved
//! once at construction:
//!
//! | metric             | type      | meaning                                     |
//! |--------------------|-----------|---------------------------------------------|
//! | `serve.requests`   | counter   | verdicts served                             |
//! | `serve.warnings`   | counter   | verdicts that warned                        |
//! | `serve.latency_ns` | histogram | per-verdict latency (`batch time / size`)   |
//! | `serve.batch_size` | histogram | size of each served chunk                   |
//!
//! A shard records each served chunk once, with relaxed atomics and no
//! lock. [`ServeReport`] reads the same cells the wire `Metrics` scrape
//! merges, so `Stats` and the scrape agree. Latency is a log2-bucketed
//! histogram (exact count/sum/min/max plus p50/p90/p99/p999 brackets),
//! not just moments: a min/mean/max triple hides exactly the percentiles
//! that regress first. The batch-size histogram sits beside it, so
//! per-item latency can be read against the batching that produced it.

use napmon_core::Verdict;
use napmon_obs::{Counter, HistogramSnapshot, LatencyHistogram, MetricsRegistry, MetricsSnapshot};
use serde::{Deserialize, Serialize};
use std::sync::Arc;
use std::time::Duration;

const REQUESTS: &str = "serve.requests";
const WARNINGS: &str = "serve.warnings";
const LATENCY_NS: &str = "serve.latency_ns";
const BATCH_SIZE: &str = "serve.batch_size";

/// One engine's metric cells and the registry that names them.
pub(crate) struct ServeMetrics {
    registry: MetricsRegistry,
    requests: Counter,
    warnings: Counter,
    latency_ns: Arc<LatencyHistogram>,
    batch_size: Arc<LatencyHistogram>,
}

impl ServeMetrics {
    pub(crate) fn new() -> Self {
        let registry = MetricsRegistry::new();
        Self {
            requests: registry.counter(REQUESTS),
            warnings: registry.counter(WARNINGS),
            latency_ns: registry.histogram(LATENCY_NS),
            batch_size: registry.histogram(BATCH_SIZE),
            registry,
        }
    }

    /// Records one served chunk that took `elapsed`. Individual timings
    /// do not exist on the batch path, so each verdict records its
    /// amortized share, `batch time / batch size`.
    pub(crate) fn record_chunk(&self, elapsed: Duration, verdicts: &[Verdict]) {
        let n = verdicts.len() as u64;
        let elapsed_ns = u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX);
        self.requests.add(n);
        self.warnings
            .add(verdicts.iter().filter(|v| v.warning).count() as u64);
        self.latency_ns.record_n(elapsed_ns / n.max(1), n);
        self.batch_size.record(n);
    }

    pub(crate) fn snapshot(&self) -> MetricsSnapshot {
        self.registry.snapshot()
    }
}

/// A serving report: one engine's cells, or several engines' merged.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ServeReport {
    /// Total requests served.
    pub requests: u64,
    /// Total requests that raised a warning.
    pub warnings: u64,
    /// Fraction of requests that warned (`0.0` while idle).
    pub warn_rate: f64,
    /// Per-request latency histogram in nanoseconds (forward pass,
    /// abstraction and membership, measured inside the shard). Batched
    /// requests record `batch time / batch size` per item.
    pub latency_ns: HistogramSnapshot,
    /// Sizes of the chunks the shards served — the denominator behind the
    /// per-item latency samples.
    pub batch_sizes: HistogramSnapshot,
    /// Jobs queued across all shards at snapshot time (backlog gauge for
    /// ops; zero after a graceful shutdown).
    pub queue_depth: u64,
}

impl ServeReport {
    /// Reads a report from a metrics snapshot holding engine cells (one
    /// engine's, or several merged) and the backlog at snapshot time.
    pub fn from_metrics(metrics: &MetricsSnapshot, queue_depth: u64) -> Self {
        let count = |name| metrics.counters.get(name).copied().unwrap_or(0);
        let histogram = |name| metrics.histograms.get(name).cloned().unwrap_or_default();
        let (requests, warnings) = (count(REQUESTS), count(WARNINGS));
        Self {
            requests,
            warnings,
            warn_rate: warn_rate(warnings, requests),
            latency_ns: histogram(LATENCY_NS),
            batch_sizes: histogram(BATCH_SIZE),
            queue_depth,
        }
    }

    /// Merges whole engine reports into one fleet-wide view — the
    /// registry-level aggregate across every mounted engine.
    pub fn merge(reports: impl IntoIterator<Item = ServeReport>) -> Self {
        let mut merged = Self::default();
        for report in reports {
            merged.requests += report.requests;
            merged.warnings += report.warnings;
            merged.latency_ns.merge(&report.latency_ns);
            merged.batch_sizes.merge(&report.batch_sizes);
            merged.queue_depth += report.queue_depth;
        }
        merged.warn_rate = warn_rate(merged.warnings, merged.requests);
        merged
    }
}

fn warn_rate(warnings: u64, requests: u64) -> f64 {
    if requests == 0 {
        0.0
    } else {
        warnings as f64 / requests as f64
    }
}

impl std::fmt::Display for ServeReport {
    /// A compact one-line operations card.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "serve report: {} requests, warn rate {:.4}, latency mean {:.0}ns \
             (min {:.0}, p50 {:.0}, p99 {:.0}, max {:.0}), {} queued",
            self.requests,
            self.warn_rate,
            self.latency_ns.mean(),
            self.latency_ns.min(),
            self.latency_ns.p50(),
            self.latency_ns.p99(),
            self.latency_ns.max(),
            self.queue_depth,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_core::Violation;

    fn verdicts(warned: &[bool]) -> Vec<Verdict> {
        warned
            .iter()
            .map(|&w| {
                if w {
                    Verdict::warn(vec![Violation::UnknownPattern { word: vec![true] }])
                } else {
                    Verdict::ok()
                }
            })
            .collect()
    }

    fn read(metrics: &ServeMetrics, queue_depth: u64) -> ServeReport {
        ServeReport::from_metrics(&metrics.snapshot(), queue_depth)
    }

    /// Two shards recording into one engine's cells read as one total,
    /// whichever order their chunks landed in.
    #[test]
    fn aggregate_merges_and_orders_shards() {
        let (a, b) = (ServeMetrics::new(), ServeMetrics::new());
        std::thread::scope(|scope| {
            scope.spawn(|| a.record_chunk(Duration::from_nanos(400), &verdicts(&[false, true])));
            scope.spawn(|| a.record_chunk(Duration::from_nanos(200), &verdicts(&[false])));
        });
        b.record_chunk(Duration::from_nanos(200), &verdicts(&[false]));
        b.record_chunk(Duration::from_nanos(400), &verdicts(&[false, true]));
        let report = read(&a, 0);
        assert_eq!(report, read(&b, 0));
        assert_eq!(report.requests, 3);
        assert_eq!(report.warnings, 1);
        assert!((report.warn_rate - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(report.latency_ns.min(), 200.0);
        assert_eq!(report.latency_ns.max(), 200.0);
        assert_eq!(report.latency_ns.count(), 3);
        assert_eq!(report.batch_sizes.count(), 2);
    }

    #[test]
    fn empty_aggregate_is_idle() {
        let report = read(&ServeMetrics::new(), 0);
        assert_eq!(report.requests, 0);
        assert_eq!(report.warn_rate, 0.0);
        assert_eq!(report, ServeReport::default());
        let none = ServeReport::from_metrics(&MetricsSnapshot::default(), 0);
        assert_eq!(none.requests, 0);
    }

    #[test]
    fn display_lists_totals_and_shards() {
        let metrics = ServeMetrics::new();
        metrics.record_chunk(Duration::from_nanos(50), &verdicts(&[true]));
        let text = read(&metrics, 0).to_string();
        assert!(text.contains("1 requests"), "{text}");
        assert!(text.contains("warn rate 1.0000"), "{text}");
        assert!(text.contains("p99"), "{text}");
    }

    /// Ops scrape reports as JSON: the whole report (rates, latency
    /// histograms, queue depth) must survive a serde round trip
    /// bit-identically.
    #[test]
    fn report_serializes_to_json() {
        let metrics = ServeMetrics::new();
        metrics.record_chunk(Duration::from_nanos(35), &verdicts(&[false, true]));
        let report = read(&metrics, 3);
        let json = serde_json::to_string(&report).unwrap();
        for key in [
            "\"warn_rate\"",
            "\"queue_depth\"",
            "\"latency_ns\"",
            "\"batch_sizes\"",
        ] {
            assert!(json.contains(key), "missing {key} in {json}");
        }
        assert!(!json.contains("\"shards\""), "{json}");
        let back: ServeReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
        assert_eq!(back.queue_depth, 3);
        assert_eq!(back.batch_sizes.count(), 1);
    }

    #[test]
    fn merge_renumbers_shards_and_sums_totals() {
        let (a, b) = (ServeMetrics::new(), ServeMetrics::new());
        a.record_chunk(Duration::from_nanos(100), &verdicts(&[true]));
        b.record_chunk(Duration::from_nanos(300), &verdicts(&[false]));
        let merged = ServeReport::merge(vec![read(&a, 1), read(&b, 2)]);
        assert_eq!(merged.requests, 2);
        assert_eq!(merged.warnings, 1);
        assert_eq!(merged.warn_rate, 0.5);
        assert_eq!(merged.queue_depth, 3);
        assert_eq!(merged.latency_ns.min(), 100.0);
        assert_eq!(merged.latency_ns.max(), 300.0);
        // Merging reports equals reading the merged cells.
        let mut cells = a.snapshot();
        cells.merge(&b.snapshot());
        assert_eq!(merged, ServeReport::from_metrics(&cells, 3));
        assert_eq!(ServeReport::merge(Vec::new()).requests, 0);
    }

    #[test]
    fn aggregate_sums_queue_depths() {
        let merged = ServeReport::merge(vec![
            ServeReport::from_metrics(&MetricsSnapshot::default(), 2),
            ServeReport::from_metrics(&MetricsSnapshot::default(), 5),
        ]);
        assert_eq!(merged.queue_depth, 7);
        assert!(merged.to_string().contains("7 queued"), "{merged}");
    }

    /// The latency histogram is a real distribution, not moments: after
    /// skewed traffic the p99 bracket must sit far above the median, and
    /// a chunk's amortized share counts once per verdict.
    #[test]
    fn latency_percentiles_see_the_tail() {
        let metrics = ServeMetrics::new();
        metrics.record_chunk(Duration::from_nanos(9_900), &verdicts(&[false; 99]));
        metrics.record_chunk(Duration::from_nanos(1_000_000), &verdicts(&[false]));
        let report = read(&metrics, 0);
        assert_eq!(report.latency_ns.count(), 100);
        let (p50_lo, p50_hi) = report.latency_ns.quantile_bounds(0.5).unwrap();
        assert!(p50_lo <= 100 && 100 <= p50_hi);
        let (p999_lo, p999_hi) = report.latency_ns.quantile_bounds(0.999).unwrap();
        assert!(
            p999_lo <= 1_000_000 && 1_000_000 <= p999_hi,
            "tail sample missing from p99.9 bracket [{p999_lo}, {p999_hi}]"
        );
    }
}
