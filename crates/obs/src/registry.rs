//! The namespaced metrics registry: named counters, gauges, and
//! histograms with lock-free hot paths.
//!
//! Registration (`counter` / `gauge` / `histogram`) takes a write lock
//! once per name and hands back a cheap `Arc`-backed handle; every
//! subsequent `inc` / `set` / `record` through the handle is a single
//! relaxed atomic — no lock, no CAS loop. Handles resolved for the same
//! name share one underlying cell, so a counter can be bumped from many
//! threads and snapshotted consistently.
//!
//! Names are dot-namespaced by subsystem (`wire.op.query`,
//! `store.bloom.hits`, `registry.flip_ns`); the Prometheus-style text
//! exposition rewrites dots to underscores to stay within the exposition
//! grammar.

use crate::hist::{HistogramSnapshot, LatencyHistogram};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock};

/// Schema version stamped into every [`MetricsSnapshot`].
pub const METRICS_SCHEMA_VERSION: u32 = 1;

/// A monotonically increasing counter handle. Clone freely; all clones
/// (and all handles resolved for the same name) share one cell.
#[derive(Clone, Debug)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A standalone counter not attached to any registry.
    #[must_use]
    pub fn standalone() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-write-wins gauge handle (unsigned).
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// Sets the gauge.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Raises the gauge to `value` if it is higher than the current one.
    #[inline]
    pub fn raise_to(&self, value: u64) {
        self.0.fetch_max(value, Ordering::Relaxed);
    }

    /// Current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Default)]
struct Inner {
    counters: BTreeMap<String, Arc<AtomicU64>>,
    gauges: BTreeMap<String, Arc<AtomicU64>>,
    histograms: BTreeMap<String, Arc<LatencyHistogram>>,
}

/// A registry of named metrics.
///
/// Registration takes a write lock once per name and hands back a cheap
/// `Arc`-backed handle; every subsequent `inc` / `set` / `record`
/// through the handle is a single relaxed atomic — no lock, no CAS loop.
#[derive(Default)]
pub struct MetricsRegistry {
    inner: RwLock<Inner>,
}

impl MetricsRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Resolves (registering on first use) the counter named `name`.
    #[must_use]
    pub fn counter(&self, name: &str) -> Counter {
        if let Some(cell) = self.inner.read().expect("metrics lock").counters.get(name) {
            return Counter(Arc::clone(cell));
        }
        let mut inner = self.inner.write().expect("metrics lock");
        let cell = inner
            .counters
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter(Arc::clone(cell))
    }

    /// Resolves (registering on first use) the gauge named `name`.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Gauge {
        if let Some(cell) = self.inner.read().expect("metrics lock").gauges.get(name) {
            return Gauge(Arc::clone(cell));
        }
        let mut inner = self.inner.write().expect("metrics lock");
        let cell = inner
            .gauges
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Gauge(Arc::clone(cell))
    }

    /// Resolves (registering on first use) the histogram named `name`.
    #[must_use]
    pub fn histogram(&self, name: &str) -> Arc<LatencyHistogram> {
        if let Some(h) = self
            .inner
            .read()
            .expect("metrics lock")
            .histograms
            .get(name)
        {
            return Arc::clone(h);
        }
        let mut inner = self.inner.write().expect("metrics lock");
        let h = inner
            .histograms
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(LatencyHistogram::new()));
        Arc::clone(h)
    }

    /// A consistent-enough point-in-time copy of every metric.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.inner.read().expect("metrics lock");
        MetricsSnapshot {
            schema_version: METRICS_SCHEMA_VERSION,
            counters: inner
                .counters
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(k, v)| (k.clone(), v.snapshot()))
                .collect(),
        }
    }
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.read().expect("metrics lock");
        f.debug_struct("MetricsRegistry")
            .field("counters", &inner.counters.len())
            .field("gauges", &inner.gauges.len())
            .field("histograms", &inner.histograms.len())
            .finish()
    }
}

/// Plain-data, serializable copy of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Schema version ([`METRICS_SCHEMA_VERSION`] at capture time).
    pub schema_version: u32,
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name.
    pub gauges: BTreeMap<String, u64>,
    /// Histogram snapshots by name.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Folds `other` into `self`: counters add, gauges take the max,
    /// histograms merge bucket-wise. Names only in one side pass through.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.schema_version = self.schema_version.max(other.schema_version);
        for (name, value) in &other.counters {
            *self.counters.entry(name.clone()).or_insert(0) += value;
        }
        for (name, value) in &other.gauges {
            let slot = self.gauges.entry(name.clone()).or_insert(0);
            *slot = (*slot).max(*value);
        }
        for (name, hist) in &other.histograms {
            self.histograms.entry(name.clone()).or_default().merge(hist);
        }
    }

    /// Prometheus-style text exposition of the snapshot.
    ///
    /// Dot-namespaced metric names are rewritten with underscores
    /// (`wire.op.query` → `wire_op_query`); histograms are rendered as
    /// summaries with `quantile` labels carrying the bracket midpoints,
    /// plus `_sum` and `_count` series.
    #[must_use]
    pub fn render_text(&self) -> String {
        use std::fmt::Write as _;
        let clean = |name: &str| name.replace(['.', '-'], "_");
        let mut out = String::new();
        for (name, value) in &self.counters {
            let name = clean(name);
            let _ = writeln!(out, "# TYPE {name} counter");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, value) in &self.gauges {
            let name = clean(name);
            let _ = writeln!(out, "# TYPE {name} gauge");
            let _ = writeln!(out, "{name} {value}");
        }
        for (name, hist) in &self.histograms {
            let name = clean(name);
            let _ = writeln!(out, "# TYPE {name} summary");
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {}", hist.quantile(q));
            }
            let _ = writeln!(out, "{name}_sum {}", hist.sum());
            let _ = writeln!(out, "{name}_count {}", hist.count());
        }
        out
    }
}

static GLOBAL: OnceLock<MetricsRegistry> = OnceLock::new();

/// The process-wide registry used by subsystems (store, registry crate)
/// whose call sites cannot practically thread a per-instance registry.
///
/// The wire server and each serving engine keep their *own* registries
/// for metrics whose exact values callers read back (degradation
/// counters, the engine's `serve.*` cells); the scrape surface merges
/// them with this one.
pub fn global() -> &'static MetricsRegistry {
    GLOBAL.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_cells_and_snapshot_sees_them() {
        let reg = MetricsRegistry::new();
        let a = reg.counter("x.hits");
        let b = reg.counter("x.hits");
        a.inc();
        b.add(2);
        reg.gauge("x.depth").set(7);
        reg.histogram("x.ns").record(1000);
        let snap = reg.snapshot();
        assert_eq!(snap.schema_version, METRICS_SCHEMA_VERSION);
        assert_eq!(snap.counters["x.hits"], 3);
        assert_eq!(snap.gauges["x.depth"], 7);
        assert_eq!(snap.histograms["x.ns"].count(), 1);
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let reg_a = MetricsRegistry::new();
        let reg_b = MetricsRegistry::new();
        reg_a.counter("n").add(5);
        reg_b.counter("n").add(7);
        reg_b.counter("only_b").inc();
        reg_a.gauge("g").set(3);
        reg_b.gauge("g").set(9);
        reg_a.histogram("h").record(10);
        reg_b.histogram("h").record(20);
        let mut merged = reg_a.snapshot();
        merged.merge(&reg_b.snapshot());
        assert_eq!(merged.counters["n"], 12);
        assert_eq!(merged.counters["only_b"], 1);
        assert_eq!(merged.gauges["g"], 9);
        assert_eq!(merged.histograms["h"].count(), 2);
    }

    #[test]
    fn text_exposition_is_prometheus_shaped() {
        let reg = MetricsRegistry::new();
        reg.counter("wire.op.query").add(4);
        reg.histogram("serve.latency_ns").record(128);
        let text = reg.snapshot().render_text();
        assert!(text.contains("# TYPE wire_op_query counter"));
        assert!(text.contains("wire_op_query 4"));
        assert!(text.contains("serve_latency_ns_count 1"));
        assert!(text.contains("quantile=\"0.99\""));
        // Metric names never carry dots in the exposition.
        for line in text.lines() {
            let name = line.split([' ', '{']).next().unwrap_or("");
            assert!(!name.contains('.'), "unescaped name in {line:?}");
        }
    }

    #[test]
    fn snapshot_serde_round_trips() {
        let reg = MetricsRegistry::new();
        reg.counter("a").inc();
        reg.histogram("b").record(42);
        let snap = reg.snapshot();
        let back: MetricsSnapshot = serde::from_value(serde::to_value(&snap).unwrap()).unwrap();
        assert_eq!(back, snap);
    }
}
