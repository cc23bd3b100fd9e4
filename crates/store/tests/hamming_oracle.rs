//! Property tests pinning the store's partition-pruned Hamming kernel to
//! a naive per-bit oracle, at widths straddling the u64 limb boundary and
//! across tail-resident vs. sealed residency.
//!
//! The oracle deliberately compares *bits*, not limbs: the bug this
//! guards against was a limb-level `zip` that silently ignored trailing
//! limbs of wider words, so the reference must not share that shape.

use napmon_bdd::BitWord;
use napmon_core::PatternSource;
use napmon_store::{PatternStore, StoreConfig, StoreError};
use proptest::prelude::*;
use std::path::PathBuf;

fn tmp(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("napmon_store_oracle_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Deterministic pseudo-random words from a splitmix-style stream.
fn pseudo_words(bits: usize, count: usize, mut state: u64) -> Vec<BitWord> {
    let mut next = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    (0..count)
        .map(|_| {
            let limbs: Vec<u64> = (0..bits.div_ceil(64)).map(|_| next()).collect();
            BitWord::from_fn(bits, |i| (limbs[i / 64] >> (i % 64)) & 1 == 1)
        })
        .collect()
}

/// Per-bit Hamming oracle: true iff some stored word is within `tau`.
fn oracle(stored: &[BitWord], probe: &BitWord, tau: usize) -> bool {
    stored.iter().any(|w| {
        let a = w.to_bools();
        let b = probe.to_bools();
        a.iter().zip(&b).filter(|(x, y)| x != y).count() <= tau
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// Widths 63/64/65/128/129 cross the limb boundary both ways; small
    /// segment capacity forces part of the set into sealed segments while
    /// the remainder stays tail-resident, so both kernels are exercised
    /// in one store.
    #[test]
    fn store_hamming_matches_per_bit_oracle(
        width_pick in 0usize..5,
        count in 1usize..120,
        seal_at in 8usize..64,
        seed in 0u64..u64::MAX,
    ) {
        let bits = [63usize, 64, 65, 128, 129][width_pick];
        let dir = tmp(&format!("prop_{bits}_{count}_{seal_at}"));
        let mut store = PatternStore::create(
            &dir,
            StoreConfig::new(bits).segment_capacity(seal_at),
        )
        .unwrap();
        let words = pseudo_words(bits, count, seed | 1);
        store.append_batch(&words).unwrap();

        // Probes: fresh random words plus near-misses of stored words
        // (flip 1..=4 bits), so hits at every tau are actually reachable.
        let mut probes = pseudo_words(bits, 6, seed.rotate_left(21) | 1);
        for (i, w) in words.iter().take(4).enumerate() {
            let flips = i + 1;
            probes.push(BitWord::from_fn(bits, |j| {
                let bit = w.to_bools()[j];
                if j < flips { !bit } else { bit }
            }));
        }
        for probe in &probes {
            for tau in 0..5usize {
                let expect = oracle(&words, probe, tau);
                prop_assert_eq!(store.contains_within(probe, tau).unwrap(), expect);
            }
        }
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Clustered words: each is one of `clusters` random centres with some of
/// its low 12 bits flipped. Sorted segments keep a cluster together, so
/// a 512-word partition's AND/OR masks are tight enough to prune.
fn clustered_words(bits: usize, count: usize, clusters: usize, seed: u64) -> Vec<BitWord> {
    let centres = pseudo_words(bits, clusters, seed);
    let noise = pseudo_words(12, count, seed.rotate_left(9) | 1);
    (0..count)
        .map(|i| {
            let centre = &centres[i % clusters];
            BitWord::from_fn(bits, |j| centre.get(j) ^ (j < 12 && noise[i].get(j)))
        })
        .collect()
}

/// Per-bit distance from `probe` to the nearest stored word.
fn nearest(stored: &[Vec<bool>], probe: &BitWord) -> usize {
    let probe = probe.to_bools();
    stored
        .iter()
        .map(|w| w.iter().zip(&probe).filter(|(x, y)| x != y).count())
        .min()
        .unwrap_or(usize::MAX)
}

/// One batch against the store, per word, as the inherent batch and as
/// the `PatternSource` batch, at every tau, against the oracle.
fn check_batch(
    store: &PatternStore,
    probes: &[BitWord],
    expect: &[usize],
    taus: &[usize],
    ctx: &str,
) {
    for &tau in taus {
        let mut inherent = vec![false; probes.len()];
        store
            .contains_within_batch(probes, tau, &mut inherent)
            .unwrap();
        let mut source = vec![true; probes.len()];
        PatternSource::contains_within_batch(store, probes, tau, &mut source);
        for (i, probe) in probes.iter().enumerate() {
            let hit = expect[i] <= tau;
            let single = store.contains_within(probe, tau).unwrap();
            assert_eq!(single, hit, "{ctx}: per word, tau={tau} probe {i}");
            assert_eq!(
                inherent[i], hit,
                "{ctx}: inherent batch, tau={tau} probe {i}"
            );
            assert_eq!(source[i], hit, "{ctx}: source batch, tau={tau} probe {i}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Stores large enough that segments cross superblocks and reach
    /// second and third 512-word partitions, with clustered words so the
    /// partition masks prune. Batches of 0–17 mix tail hits, segment hits,
    /// misses and duplicates; answers must hold live, after seal, after
    /// compaction and after reopen.
    #[test]
    fn store_batches_match_per_bit_oracle_across_partitions(
        width_pick in 0usize..5,
        count in 300usize..2001,
        capacity in 512usize..1537,
        clusters in 2usize..9,
        n in 0usize..18,
        big_tau in 16usize..24,
        seed in 0u64..u64::MAX,
    ) {
        let bits = [39usize, 63, 64, 65, 129][width_pick];
        let dir = tmp(&format!("partitions_{bits}_{count}_{capacity}"));
        let mut store = PatternStore::create(
            &dir,
            StoreConfig::new(bits).segment_capacity(capacity),
        )
        .unwrap();
        let words = clustered_words(bits, count, clusters, seed | 1);
        store.append_batch(&words).unwrap();

        // Near-misses (0-5 bits flipped anywhere) of the newest words,
        // which the tail holds, and of the oldest, which are sealed unless
        // the whole set fits the tail; random words; duplicates.
        let mut probes: Vec<BitWord> = Vec::with_capacity(n);
        let mut flips = pseudo_words(64, n, seed.rotate_left(33) | 1).into_iter();
        for i in 0..n {
            let source = match i % 4 {
                0 => &words[words.len() - 1 - i],
                1 => &words[i * 7],
                _ => &words[(i * 131) % words.len()],
            };
            let probe = match i % 6 {
                5 => pseudo_words(bits, 1, seed ^ i as u64).remove(0),
                4 => probes[i / 2].clone(),
                _ => {
                    let flip = flips.next().unwrap();
                    let mut probe = source.clone();
                    for d in 0..i % 6 {
                        let j = (flip.limbs()[0] as usize >> (8 * d)) % bits;
                        probe.set(j, !probe.get(j));
                    }
                    probe
                }
            };
            probes.push(probe);
        }
        let stored: Vec<Vec<bool>> = words.iter().map(BitWord::to_bools).collect();
        let expect: Vec<usize> = probes.iter().map(|p| nearest(&stored, p)).collect();
        let taus = [0usize, 1, 2, 3, 4, big_tau];

        check_batch(&store, &probes, &expect, &taus, "live");
        store.seal().unwrap();
        check_batch(&store, &probes, &expect, &taus, "sealed");
        store.compact().unwrap();
        check_batch(&store, &probes, &expect, &taus, "compacted");
        drop(store);
        let store = PatternStore::open(&dir).unwrap();
        check_batch(&store, &probes, &expect, &taus, "reopened");
        drop(store);
        std::fs::remove_dir_all(&dir).ok();
    }
}

/// The satellite bugfix itself: a wrong-width Hamming query is a typed
/// error, never a silently-truncated limb comparison.
#[test]
fn wrong_width_hamming_query_is_a_typed_mismatch() {
    let dir = tmp("width_mismatch");
    let mut store = PatternStore::create(&dir, StoreConfig::new(64)).unwrap();
    let stored = BitWord::from_fn(64, |i| i % 3 == 0);
    store.append(&stored).unwrap();

    // A 65-bit query whose first 64 bits match a stored word exactly: the
    // old limb-zip scan would have answered `true` for tau >= 1 by
    // ignoring the trailing limb entirely.
    let wide = BitWord::from_fn(65, |i| i < 64 && i % 3 == 0);
    for tau in 0..3usize {
        let err = store.contains_within(&wide, tau).unwrap_err();
        assert!(matches!(err, StoreError::Mismatch(_)), "tau={tau}: {err}");
    }
    // Narrower queries are rejected the same way.
    let narrow = BitWord::from_fn(63, |i| i % 3 == 0);
    assert!(matches!(
        store.contains_within(&narrow, 2).unwrap_err(),
        StoreError::Mismatch(_)
    ));
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}

/// Sealing and compaction move words from the tail kernel to the
/// partition-indexed segment kernel; answers must not change.
#[test]
fn answers_stable_across_seal_and_compact() {
    let dir = tmp("residency");
    let bits = 129;
    let mut store = PatternStore::create(&dir, StoreConfig::new(bits)).unwrap();
    let words = pseudo_words(bits, 700, 0x5eed);
    store.append_batch(&words).unwrap();

    let probes = pseudo_words(bits, 10, 0x0dd5);
    let baseline: Vec<Vec<bool>> = probes
        .iter()
        .map(|p| {
            (0..5)
                .map(|tau| store.contains_within(p, tau).unwrap())
                .collect()
        })
        .collect();
    for (p, b) in probes.iter().zip(&baseline) {
        for (tau, &expect) in b.iter().enumerate() {
            assert_eq!(oracle(&words, p, tau), expect, "tail baseline tau={tau}");
        }
    }

    store.seal().unwrap();
    for (p, b) in probes.iter().zip(&baseline) {
        for (tau, &expect) in b.iter().enumerate() {
            assert_eq!(
                store.contains_within(p, tau).unwrap(),
                expect,
                "sealed tau={tau}"
            );
        }
    }

    // More appends, then compact everything into one segment.
    store
        .append_batch(&pseudo_words(bits, 300, 0xbeef))
        .unwrap();
    store.compact().unwrap();
    for (p, b) in probes.iter().zip(&baseline) {
        for (tau, &expect) in b.iter().enumerate() {
            // Compaction only adds words, so an existing hit must survive.
            if expect {
                assert!(
                    store.contains_within(p, tau).unwrap(),
                    "compacted tau={tau}"
                );
            }
        }
    }
    drop(store);
    std::fs::remove_dir_all(&dir).ok();
}
