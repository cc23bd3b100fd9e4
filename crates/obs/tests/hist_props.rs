//! Property tests for histogram correctness: merge algebra, bucket
//! containment, quantile brackets against a sorted oracle, and the
//! weighted record against repeated records.
//!
//! Sample sets deliberately mix three magnitudes — exact low range,
//! mid-range values dense around log2 bucket boundaries, and full-range
//! `u64`s — so brackets are exercised across bucket-width transitions.

use napmon_obs::{bucket_bounds, bucket_index, HistogramSnapshot, LatencyHistogram, NUM_BUCKETS};
use proptest::prelude::*;

fn build(samples: &[u64]) -> HistogramSnapshot {
    let mut h = HistogramSnapshot::new();
    for &v in samples {
        h.record(v);
    }
    h
}

/// Values hugging powers of two, where bucket width doubles.
fn boundary_values(shifts: &[u64], jitters: &[i64]) -> Vec<u64> {
    shifts
        .iter()
        .zip(jitters)
        .map(|(&shift, &jitter)| {
            let base = 1u64 << (shift % 64);
            if jitter >= 0 {
                base.saturating_add(jitter as u64)
            } else {
                base.saturating_sub(jitter.unsigned_abs())
            }
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every recorded sample lands in a bucket whose bounds contain it.
    #[test]
    fn bucket_bounds_contain_every_sample(
        full in collection::vec(0u64..=u64::MAX, 0..64),
        small in collection::vec(0u64..=4096, 0..64),
        shifts in collection::vec(0u64..64, 0..32),
        jitters in collection::vec(-17i64..=17, 32),
    ) {
        let mut samples = full;
        samples.extend(small);
        samples.extend(boundary_values(&shifts, &jitters));
        for &v in &samples {
            let idx = bucket_index(v);
            prop_assert!(idx < NUM_BUCKETS);
            let (lo, hi) = bucket_bounds(idx);
            prop_assert!(lo <= v && v <= hi, "{v} outside bucket {idx} = [{lo}, {hi}]");
        }
        // And the histogram as a whole agrees with its inputs.
        let h = build(&samples);
        prop_assert_eq!(h.count(), samples.len() as u64);
        if let (Some(&min), Some(&max)) =
            (samples.iter().min(), samples.iter().max())
        {
            prop_assert_eq!(h.min(), min as f64);
            prop_assert_eq!(h.max(), max as f64);
        }
    }

    /// Merge is commutative and associative: any shard-merge order gives
    /// bit-identical state.
    #[test]
    fn merge_is_commutative_and_associative(
        a in collection::vec(0u64..=u64::MAX, 0..48),
        b in collection::vec(0u64..=1 << 20, 0..48),
        c in collection::vec(0u64..=4096, 0..48),
    ) {
        let (ha, hb, hc) = (build(&a), build(&b), build(&c));

        let mut ab = ha.clone();
        ab.merge(&hb);
        let mut ba = hb.clone();
        ba.merge(&ha);
        prop_assert_eq!(&ab, &ba);

        let mut ab_c = ab.clone();
        ab_c.merge(&hc);
        let mut bc = hb.clone();
        bc.merge(&hc);
        let mut a_bc = ha.clone();
        a_bc.merge(&bc);
        prop_assert_eq!(&ab_c, &a_bc);

        // Merging equals recording the concatenation.
        let mut all = a.clone();
        all.extend(&b);
        all.extend(&c);
        prop_assert_eq!(&ab_c, &build(&all));
    }

    /// Quantile brackets contain the exact sorted-oracle order statistic,
    /// at canonical quantiles and arbitrary ones, across bucket widths.
    #[test]
    fn quantile_brackets_contain_sorted_oracle(
        small in collection::vec(0u64..=64, 0..40),
        mid in collection::vec(0u64..=1 << 24, 1..40),
        shifts in collection::vec(0u64..64, 0..24),
        jitters in collection::vec(-9i64..=9, 24),
        q_extra in 0.0f64..1.0,
    ) {
        let mut samples = small;
        samples.extend(mid);
        samples.extend(boundary_values(&shifts, &jitters));
        let h = build(&samples);
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let n = sorted.len() as u64;
        for q in [0.0, 0.5, 0.9, 0.99, 0.999, 1.0, q_extra] {
            let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
            let oracle = sorted[(rank - 1) as usize];
            let (lo, hi) = h.quantile_bounds(q).expect("non-empty");
            prop_assert!(
                lo <= oracle && oracle <= hi,
                "q={q}: oracle {oracle} outside bracket [{lo}, {hi}] (n={n})"
            );
        }
    }

    /// `record_n(v, n)` is `n` calls of `record(v)`, on top of any
    /// history and for `n = 0`, at full-range and low values alike (the
    /// sum wraps the same way on both paths).
    #[test]
    fn weighted_record_equals_repeated_records(
        history in collection::vec(0u64..=u64::MAX, 0..16),
        value in 0u64..=u64::MAX,
        small in 0u64..=4096,
        n in 0u64..48,
        m in 0u64..48,
    ) {
        let weighted = LatencyHistogram::new();
        let repeated = LatencyHistogram::new();
        for &v in &history {
            weighted.record(v);
            repeated.record(v);
        }
        weighted.record_n(value, n);
        weighted.record_n(small, m);
        for _ in 0..n {
            repeated.record(value);
        }
        for _ in 0..m {
            repeated.record(small);
        }
        prop_assert_eq!(weighted.snapshot(), repeated.snapshot());
    }
}
