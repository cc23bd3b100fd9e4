//! Deterministic pseudo-random number generation.
//!
//! Every stochastic component of the workspace (weight initialization, data
//! synthesis, training shuffles, perturbation sampling in tests) draws from
//! a [`Prng`] seeded with an explicit `u64`, so that every experiment
//! `paper_tables all --full` runs is reproducible bit-for-bit.
//!
//! The generator is a self-contained xoshiro256\*\* seeded through
//! SplitMix64 — the standard construction recommended by its authors. We
//! implement it here instead of depending on `rand` because the monitors
//! need generators that are `Clone + Serialize` and whose streams never
//! change across dependency upgrades (rand 0.10 removed `Clone` from
//! `StdRng` and reshuffled its sampling traits).

use serde::{Deserialize, Serialize};

/// A seeded pseudo-random number generator (xoshiro256\*\*) with the
/// distributions used in this workspace.
///
/// Equal seeds yield equal streams forever: the algorithm is pinned in this
/// crate, not inherited from an external dependency.
///
/// ```
/// use napmon_tensor::Prng;
/// let mut a = Prng::seed(7);
/// let mut b = Prng::seed(7);
/// assert_eq!(a.uniform(0.0, 1.0), b.uniform(0.0, 1.0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Prng {
    state: [u64; 4],
    /// Cached second output of the Box–Muller transform, stored as bits so
    /// the struct stays `Eq`.
    spare_normal: Option<u64>,
}

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Prng {
    /// Creates a generator from a seed. Equal seeds yield equal streams.
    pub fn seed(seed: u64) -> Self {
        let mut sm = seed;
        let state = [
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
            splitmix64(&mut sm),
        ];
        Self {
            state,
            spare_normal: None,
        }
    }

    /// Next raw 64-bit output (xoshiro256\*\*).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.state;
        let result = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }

    /// Derives an independent generator for a named sub-stream.
    ///
    /// Splitting avoids accidental stream sharing when one experiment seeds
    /// several components (data, init, training) from one master seed.
    pub fn split(&mut self, stream: u64) -> Prng {
        Prng::seed(self.next_u64() ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// Uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform sample in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi` or either bound is non-finite.
    pub fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(
            lo < hi && lo.is_finite() && hi.is_finite(),
            "uniform: bad range [{lo}, {hi})"
        );
        lo + (hi - lo) * self.unit()
    }

    /// Standard normal sample via the Box–Muller transform.
    pub fn standard_normal(&mut self) -> f64 {
        if let Some(bits) = self.spare_normal.take() {
            return f64::from_bits(bits);
        }
        // Box–Muller needs u1 in (0, 1]; unit() yields [0, 1).
        let u1 = 1.0 - self.unit();
        let u2 = self.unit();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f64::consts::PI * u2;
        self.spare_normal = Some((r * theta.sin()).to_bits());
        r * theta.cos()
    }

    /// Normal sample with the given mean and standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `sigma < 0`.
    pub fn normal(&mut self, mu: f64, sigma: f64) -> f64 {
        assert!(sigma >= 0.0, "normal: negative sigma {sigma}");
        mu + sigma * self.standard_normal()
    }

    /// Uniform integer in `[0, below)` via rejection-free Lemire reduction.
    ///
    /// # Panics
    ///
    /// Panics if `below == 0`.
    pub fn index(&mut self, below: usize) -> usize {
        assert!(below > 0, "index: empty range");
        // Multiply-shift: maps 64 random bits onto [0, below) with bias
        // below 2^-64 * below — negligible for the sizes used here.
        let wide = (self.next_u64() as u128) * (below as u128);
        (wide >> 64) as usize
    }

    /// Bernoulli sample: `true` with probability `p`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is not in `[0, 1]`.
    pub fn chance(&mut self, p: f64) -> bool {
        assert!((0.0..=1.0).contains(&p), "chance: p={p} outside [0,1]");
        self.unit() < p
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.index(i + 1);
            items.swap(i, j);
        }
    }

    /// A vector of `n` uniform samples in `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn uniform_vec(&mut self, n: usize, lo: f64, hi: f64) -> Vec<f64> {
        (0..n).map(|_| self.uniform(lo, hi)).collect()
    }

    /// A vector of `n` normal samples.
    pub fn normal_vec(&mut self, n: usize, mu: f64, sigma: f64) -> Vec<f64> {
        (0..n).map(|_| self.normal(mu, sigma)).collect()
    }

    /// Samples `k` distinct indices from `[0, n)` (a uniform k-subset),
    /// returned in ascending order.
    ///
    /// # Panics
    ///
    /// Panics if `k > n`.
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "sample_indices: k={k} > n={n}");
        let mut all: Vec<usize> = (0..n).collect();
        // Partial Fisher–Yates: the first k slots become the sample.
        for i in 0..k {
            let j = i + self.index(n - i);
            all.swap(i, j);
        }
        let mut picked = all[..k].to_vec();
        picked.sort_unstable();
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equal_seeds_give_equal_streams() {
        let mut a = Prng::seed(123);
        let mut b = Prng::seed(123);
        for _ in 0..32 {
            assert_eq!(a.uniform(-1.0, 1.0), b.uniform(-1.0, 1.0));
            assert_eq!(a.standard_normal(), b.standard_normal());
            assert_eq!(a.index(10), b.index(10));
        }
    }

    #[test]
    fn known_first_output_is_stable() {
        // Regression pin: if this changes, every experiment seed changes.
        let mut rng = Prng::seed(0);
        assert_eq!(rng.next_u64(), 11091344671253066420);
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Prng::seed(1);
        let mut b = Prng::seed(2);
        let va: Vec<f64> = (0..8).map(|_| a.uniform(0.0, 1.0)).collect();
        let vb: Vec<f64> = (0..8).map(|_| b.uniform(0.0, 1.0)).collect();
        assert_ne!(va, vb);
    }

    #[test]
    fn split_streams_differ_from_parent_and_each_other() {
        let mut root = Prng::seed(99);
        let mut s1 = root.split(1);
        let mut s2 = root.split(2);
        let a = s1.uniform(0.0, 1.0);
        let b = s2.uniform(0.0, 1.0);
        assert_ne!(a, b);
        assert_ne!(a, root.uniform(0.0, 1.0));
    }

    #[test]
    fn clone_preserves_stream_position() {
        let mut a = Prng::seed(5);
        let _ = a.normal_vec(7, 0.0, 1.0);
        let mut b = a.clone();
        assert_eq!(a.next_u64(), b.next_u64());
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = Prng::seed(5);
        for _ in 0..1000 {
            let v = rng.uniform(-2.0, 3.0);
            assert!((-2.0..3.0).contains(&v));
        }
    }

    #[test]
    fn unit_covers_both_halves() {
        let mut rng = Prng::seed(8);
        let lows = (0..1000).filter(|_| rng.unit() < 0.5).count();
        assert!((400..600).contains(&lows), "lows {lows}");
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = Prng::seed(42);
        let n = 20_000;
        let samples = rng.normal_vec(n, 1.5, 2.0);
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 1.5).abs() < 0.06, "mean {mean}");
        assert!((var - 4.0).abs() < 0.25, "var {var}");
    }

    #[test]
    fn index_is_roughly_uniform() {
        let mut rng = Prng::seed(3);
        let mut counts = [0usize; 5];
        for _ in 0..10_000 {
            counts[rng.index(5)] += 1;
        }
        for &c in &counts {
            assert!((1800..2200).contains(&c), "counts {counts:?}");
        }
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut rng = Prng::seed(11);
        let mut items: Vec<u32> = (0..100).collect();
        rng.shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn chance_frequency_tracks_p() {
        let mut rng = Prng::seed(77);
        let hits = (0..10_000).filter(|_| rng.chance(0.25)).count();
        assert!(
            (hits as f64 / 10_000.0 - 0.25).abs() < 0.02,
            "rate {}",
            hits as f64 / 10_000.0
        );
    }

    #[test]
    fn sample_indices_are_distinct_sorted_in_range() {
        let mut rng = Prng::seed(21);
        for _ in 0..100 {
            let s = rng.sample_indices(20, 7);
            assert_eq!(s.len(), 7);
            assert!(s.windows(2).all(|w| w[0] < w[1]));
            assert!(s.iter().all(|&i| i < 20));
        }
    }

    #[test]
    fn sample_indices_full_set_is_identity() {
        let mut rng = Prng::seed(22);
        assert_eq!(rng.sample_indices(5, 5), vec![0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "bad range")]
    fn uniform_rejects_inverted_range() {
        Prng::seed(0).uniform(1.0, 1.0);
    }

    #[test]
    fn serde_round_trip_preserves_stream() {
        let mut a = Prng::seed(13);
        let _ = a.standard_normal();
        let json = serde_json::to_string(&a).unwrap();
        let mut b: Prng = serde_json::from_str(&json).unwrap();
        assert_eq!(a.standard_normal(), b.standard_normal());
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
