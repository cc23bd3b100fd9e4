//! Log2-bucketed latency histograms: a lock-free atomic recorder
//! ([`LatencyHistogram`]) and its plain mergeable snapshot
//! ([`HistogramSnapshot`]).
//!
//! ## Bucketing
//!
//! Values are nanoseconds (`u64`). The first [`SUB_COUNT`] values (`0..16`)
//! each get an exact bucket; every octave above that is split into
//! [`SUB_COUNT`] linear sub-buckets (an HDR-style layout), so the relative
//! width of any bucket is at most `1/16` (≈ 6.25%). Quantile queries return
//! the *exact bounds* of the bucket holding the rank — a `(lo, hi)` bracket
//! guaranteed to contain the true order statistic — rather than a point
//! estimate, so p50/p90/p99/p999 figures are never silently wrong by more
//! than the bucket width.
//!
//! The full `u64` range is covered: the top bucket's upper bound is
//! `u64::MAX`, so no sample is ever out of range.

use serde::{de, Deserialize, Deserializer, Serialize, Serializer};
use std::sync::atomic::{AtomicU64, Ordering};

/// log2 of the number of linear sub-buckets per octave.
pub const SUB_BITS: u32 = 4;
/// Linear sub-buckets per octave (and width of the exact low range).
pub const SUB_COUNT: usize = 1 << SUB_BITS;
/// Total number of buckets needed to cover all of `u64`.
///
/// Values `0..16` take one bucket each; octaves with most-significant bit
/// `4..=63` contribute [`SUB_COUNT`] buckets apiece.
pub const NUM_BUCKETS: usize = SUB_COUNT + (64 - SUB_BITS as usize) * SUB_COUNT;

/// The bucket index holding `value`. Always `< NUM_BUCKETS`.
#[inline]
#[must_use]
pub fn bucket_index(value: u64) -> usize {
    if value < SUB_COUNT as u64 {
        value as usize
    } else {
        let msb = 63 - value.leading_zeros(); // >= SUB_BITS
        let sub = ((value >> (msb - SUB_BITS)) & (SUB_COUNT as u64 - 1)) as usize;
        (((msb - SUB_BITS + 1) as usize) << SUB_BITS) | sub
    }
}

/// The inclusive `(lo, hi)` value range of bucket `index`.
///
/// Inverse of [`bucket_index`]: for every `v`,
/// `bucket_bounds(bucket_index(v)).0 <= v <= bucket_bounds(bucket_index(v)).1`.
///
/// # Panics
///
/// Panics if `index >= NUM_BUCKETS`.
#[must_use]
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    assert!(index < NUM_BUCKETS, "bucket index {index} out of range");
    if index < SUB_COUNT {
        (index as u64, index as u64)
    } else {
        let msb = (index >> SUB_BITS) as u32 + SUB_BITS - 1;
        let sub = (index & (SUB_COUNT - 1)) as u64;
        let width = 1u64 << (msb - SUB_BITS);
        let lo = (1u64 << msb) + sub * width;
        (lo, lo + (width - 1))
    }
}

/// A lock-free latency histogram: atomic `u64` buckets plus count / sum /
/// min / max, recordable from any number of threads concurrently.
///
/// All updates are `Relaxed` single-word atomics — there is no lock and no
/// CAS loop (min/max use `fetch_min`/`fetch_max`). Read it by taking a
/// [`snapshot`](Self::snapshot); snapshots are plain data, serializable and
/// mergeable across shards.
pub struct LatencyHistogram {
    count: AtomicU64,
    sum: AtomicU64,
    min: AtomicU64,
    max: AtomicU64,
    buckets: Box<[AtomicU64]>,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            min: AtomicU64::new(u64::MAX),
            max: AtomicU64::new(0),
            buckets: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Records one sample. Lock-free; callable from any thread.
    #[inline]
    pub fn record(&self, value: u64) {
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
    }

    /// Records `n` samples of `value` at the cost of one: the state equals
    /// `n` calls of [`record`](Self::record), and `n = 0` records nothing.
    /// A batch timed as a whole records its per-item share this way.
    #[inline]
    pub fn record_n(&self, value: u64, n: u64) {
        if n == 0 {
            return;
        }
        self.count.fetch_add(n, Ordering::Relaxed);
        self.sum.fetch_add(value.wrapping_mul(n), Ordering::Relaxed);
        self.min.fetch_min(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
        self.buckets[bucket_index(value)].fetch_add(n, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A plain-data copy of the current state.
    ///
    /// Taken bucket-by-bucket without stopping writers, so a snapshot racing
    /// concurrent records may be off by the in-flight samples — each bucket
    /// value is itself exact.
    #[must_use]
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut snap = HistogramSnapshot::new();
        snap.count = self.count.load(Ordering::Relaxed);
        snap.sum = self.sum.load(Ordering::Relaxed);
        snap.min = self.min.load(Ordering::Relaxed);
        snap.max = self.max.load(Ordering::Relaxed);
        for (dst, src) in snap.buckets.iter_mut().zip(self.buckets.iter()) {
            *dst = src.load(Ordering::Relaxed);
        }
        snap
    }
}

impl std::fmt::Debug for LatencyHistogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LatencyHistogram")
            .field("count", &self.count())
            .finish_non_exhaustive()
    }
}

/// Plain-data histogram state: single-writer recording, mergeable across
/// sources, serializable (sparse — only non-empty buckets are encoded).
///
/// This is what a [`LatencyHistogram`] snapshot reads as, and what a
/// single-threaded recorder (a shadow report) records into without
/// atomics; [`merge`](Self::merge) folds snapshots together.
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
    buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramSnapshot {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
            buckets: vec![0; NUM_BUCKETS],
        }
    }

    /// Records one sample (single-writer; no allocation).
    ///
    /// The sum wraps on overflow (matching the atomic recorder's
    /// `fetch_add`); unreachable for realistic nanosecond workloads.
    #[inline]
    pub fn record(&mut self, value: u64) {
        self.count += 1;
        self.sum = self.sum.wrapping_add(value);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        self.buckets[bucket_index(value)] += 1;
    }

    /// Records a (non-negative) nanosecond sample given as `f64`, as the
    /// serving path measures durations.
    #[inline]
    pub fn record_ns(&mut self, ns: f64) {
        self.record(if ns <= 0.0 { 0 } else { ns as u64 });
    }

    /// Samples recorded.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Mean of all samples (`0.0` when empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }

    /// Smallest sample (`0.0` when empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min as f64
        }
    }

    /// Largest sample (`0.0` when empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max as f64
        }
    }

    /// Sum of all samples.
    #[must_use]
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Folds `other` into `self`. Associative and commutative: merging a
    /// set of shard histograms yields the same result in any order.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        self.count += other.count;
        self.sum = self.sum.wrapping_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        for (dst, src) in self.buckets.iter_mut().zip(&other.buckets) {
            *dst += src;
        }
    }

    /// The exact `(lo, hi)` bound pair bracketing the `q`-quantile, or
    /// `None` when the histogram is empty.
    ///
    /// The bracket is a guarantee, not an estimate: the true order
    /// statistic `sorted[rank-1]` with `rank = clamp(ceil(q·count), 1,
    /// count)` satisfies `lo <= sorted[rank-1] <= hi`. The bounds are
    /// additionally clamped to the exact observed `[min, max]`.
    #[must_use]
    pub fn quantile_bounds(&self, q: f64) -> Option<(u64, u64)> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut cumulative = 0u64;
        for (index, &bucket) in self.buckets.iter().enumerate() {
            cumulative += bucket;
            if cumulative >= rank {
                let (lo, hi) = bucket_bounds(index);
                return Some((lo.max(self.min), hi.min(self.max)));
            }
        }
        Some((self.min, self.max))
    }

    /// Midpoint of the `q`-quantile bracket (`0.0` when empty).
    #[must_use]
    pub fn quantile(&self, q: f64) -> f64 {
        self.quantile_bounds(q)
            .map_or(0.0, |(lo, hi)| (lo as f64 + hi as f64) / 2.0)
    }

    /// Median bracket midpoint.
    #[must_use]
    pub fn p50(&self) -> f64 {
        self.quantile(0.50)
    }

    /// 90th-percentile bracket midpoint.
    #[must_use]
    pub fn p90(&self) -> f64 {
        self.quantile(0.90)
    }

    /// 99th-percentile bracket midpoint.
    #[must_use]
    pub fn p99(&self) -> f64 {
        self.quantile(0.99)
    }

    /// 99.9th-percentile bracket midpoint.
    #[must_use]
    pub fn p999(&self) -> f64 {
        self.quantile(0.999)
    }

    /// Non-empty `(bucket_index, count)` pairs, low to high.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c != 0)
            .map(|(i, &c)| (i, c))
    }
}

// The JSON form is sparse — `{count, sum, min, max, buckets: [[index,
// count], ...]}` — because a dense 976-slot array per histogram would
// dominate every stats payload.
impl Serialize for HistogramSnapshot {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        use serde::{Map, Number, Value};
        let mut map = Map::new();
        map.insert("count".into(), Value::Number(Number::PosInt(self.count)));
        map.insert("sum".into(), Value::Number(Number::PosInt(self.sum)));
        map.insert("min".into(), Value::Number(Number::PosInt(self.min)));
        map.insert("max".into(), Value::Number(Number::PosInt(self.max)));
        let buckets = self
            .nonzero_buckets()
            .map(|(i, c)| {
                Value::Array(vec![
                    Value::Number(Number::PosInt(i as u64)),
                    Value::Number(Number::PosInt(c)),
                ])
            })
            .collect();
        map.insert("buckets".into(), Value::Array(buckets));
        serializer.serialize_value(Value::Object(map))
    }
}

impl<'de> Deserialize<'de> for HistogramSnapshot {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        use serde::Value;
        let value = deserializer.deserialize_value()?;
        let Value::Object(mut map) = value else {
            return Err(de::Error::custom("HistogramSnapshot: expected object"));
        };
        let take_u64 = |map: &mut serde::Map, field: &str| -> Result<u64, D::Error> {
            match map.remove(field) {
                Some(Value::Number(n)) => n.as_u64().ok_or_else(|| {
                    de::Error::custom(format!("HistogramSnapshot: field `{field}` out of range"))
                }),
                _ => Err(de::Error::custom(format!(
                    "HistogramSnapshot: missing numeric field `{field}`"
                ))),
            }
        };
        let mut snap = HistogramSnapshot::new();
        snap.count = take_u64(&mut map, "count")?;
        snap.sum = take_u64(&mut map, "sum")?;
        snap.min = take_u64(&mut map, "min")?;
        snap.max = take_u64(&mut map, "max")?;
        let Some(Value::Array(pairs)) = map.remove("buckets") else {
            return Err(de::Error::custom(
                "HistogramSnapshot: missing array field `buckets`",
            ));
        };
        for pair in pairs {
            let (index, bucket_count): (u64, u64) =
                serde::from_value(pair).map_err(de::Error::custom)?;
            let index = usize::try_from(index)
                .ok()
                .filter(|&i| i < NUM_BUCKETS)
                .ok_or_else(|| {
                    de::Error::custom(format!("HistogramSnapshot: bucket index {index} invalid"))
                })?;
            snap.buckets[index] += bucket_count;
        }
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_and_bounds_are_inverse_at_edges() {
        // Every power-of-two boundary, its neighbours, and the extremes.
        let mut probes = vec![0u64, 1, 15, 16, 17, u64::MAX, u64::MAX - 1];
        for shift in 4..64 {
            let base = 1u64 << shift;
            probes.extend([base - 1, base, base + 1]);
        }
        for v in probes {
            let idx = bucket_index(v);
            assert!(idx < NUM_BUCKETS, "index {idx} out of range for {v}");
            let (lo, hi) = bucket_bounds(idx);
            assert!(lo <= v && v <= hi, "{v} outside bucket [{lo}, {hi}]");
        }
    }

    #[test]
    fn buckets_tile_u64_contiguously() {
        let mut expected_lo = 0u64;
        for index in 0..NUM_BUCKETS {
            let (lo, hi) = bucket_bounds(index);
            assert_eq!(lo, expected_lo, "gap or overlap at bucket {index}");
            assert!(hi >= lo);
            if index == NUM_BUCKETS - 1 {
                assert_eq!(hi, u64::MAX, "top bucket must end at u64::MAX");
            } else {
                expected_lo = hi + 1;
            }
        }
    }

    #[test]
    fn atomic_and_plain_recorders_agree() {
        let atomic = LatencyHistogram::new();
        let mut plain = HistogramSnapshot::new();
        for v in [0u64, 3, 17, 250, 999, 12_345, 7_777_777, u64::MAX] {
            atomic.record(v);
            plain.record(v);
        }
        assert_eq!(atomic.snapshot(), plain);
    }

    #[test]
    fn quantiles_and_moments_on_known_data() {
        let mut h = HistogramSnapshot::new();
        for v in 1..=100u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 100);
        assert!((h.mean() - 50.5).abs() < 1e-9);
        assert_eq!(h.min(), 1.0);
        assert_eq!(h.max(), 100.0);
        let (lo, hi) = h.quantile_bounds(0.5).unwrap();
        assert!(lo <= 50 && 50 <= hi, "p50 bracket [{lo},{hi}] misses 50");
        let (lo, hi) = h.quantile_bounds(0.99).unwrap();
        assert!(lo <= 99 && 99 <= hi, "p99 bracket [{lo},{hi}] misses 99");
        let (lo, hi) = h.quantile_bounds(1.0).unwrap();
        assert!(lo <= 100 && 100 <= hi);
        assert!(HistogramSnapshot::new().quantile_bounds(0.5).is_none());
    }

    #[test]
    fn serde_round_trip_is_lossless_and_sparse() {
        let mut h = HistogramSnapshot::new();
        for v in [0u64, 5, 1000, 1001, 1_000_000, u64::MAX] {
            h.record(v);
        }
        let value = serde::to_value(&h).unwrap();
        // Sparse: far fewer encoded buckets than NUM_BUCKETS.
        if let serde::Value::Object(map) = &value {
            if let Some(serde::Value::Array(pairs)) = map.get("buckets") {
                assert!(pairs.len() <= 6);
            } else {
                panic!("buckets must be an array");
            }
        } else {
            panic!("snapshot must serialize to an object");
        }
        let back: HistogramSnapshot = serde::from_value(value).unwrap();
        assert_eq!(back, h);
    }
}
