//! Quantitative monitor scores.
//!
//! The paper's related work (Lukina et al., "Into the Unknown") replaces
//! the binary in/out decision with a *quantitative* measure of how far an
//! observation sits from the recorded abstraction. This module adds such
//! scores on top of the qualitative monitors:
//!
//! - for a [`MinMaxMonitor`], the largest per-neuron distance outside the
//!   recorded box (`0.0` means inside);
//! - for a [`PatternMonitor`], the minimum Hamming distance between the
//!   observed word and the recorded pattern set.
//!
//! Scores enable threshold sweeps and ROC analysis (see
//! `napmon-eval::metrics::roc`), which the binary verdicts cannot express.

use crate::builder::AnyMonitor;
use crate::minmax::MinMaxMonitor;
use crate::monitor::Monitor;
use crate::pattern::PatternMonitor;

/// A monitor that can quantify *how far* outside the abstraction an
/// observation lies (0.0 = inside; larger = farther out).
pub trait ScoredMonitor: Monitor {
    /// Out-of-abstraction score of an extracted feature vector.
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    fn score_features(&self, features: &[f64]) -> f64;
}

impl ScoredMonitor for MinMaxMonitor {
    fn score_features(&self, features: &[f64]) -> f64 {
        assert_eq!(features.len(), self.lo().len(), "score: dimension mismatch");
        let mut worst = 0.0f64;
        for (j, &v) in features.iter().enumerate() {
            let below = self.lo()[j] - v;
            let above = v - self.hi()[j];
            worst = worst.max(below).max(above);
        }
        worst.max(0.0)
    }
}

impl ScoredMonitor for PatternMonitor {
    /// Minimum Hamming distance from the observed word to the pattern set,
    /// in encoded bits.
    fn score_features(&self, features: &[f64]) -> f64 {
        let word = self.abstract_bitword(features);
        (0..=word.len())
            .find(|&tau| self.contains_within_packed(&word, tau))
            .unwrap_or(word.len()) as f64
    }
}

impl ScoredMonitor for AnyMonitor {
    fn score_features(&self, features: &[f64]) -> f64 {
        match self {
            AnyMonitor::MinMax(m) => m.score_features(features),
            AnyMonitor::Pattern(m) => m.score_features(features),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::MonitorKind;
    use crate::feature::FeatureExtractor;
    use crate::monitor::QueryScratch;
    use crate::spec::MonitorSpec;
    use napmon_nn::{Activation, LayerSpec, Network};
    use napmon_tensor::Prng;

    fn net() -> Network {
        Network::seeded(81, 2, &[LayerSpec::dense(4, Activation::Relu)])
    }

    #[test]
    fn minmax_score_is_zero_inside_and_grows_outside() {
        let n = net();
        let fx = FeatureExtractor::new(&n, 2).unwrap();
        let mut m = MinMaxMonitor::empty(fx);
        m.absorb_point(&[0.0, 0.0, 0.0, 0.0]);
        m.absorb_point(&[1.0, 1.0, 1.0, 1.0]);
        assert_eq!(m.score_features(&[0.5, 0.5, 0.5, 0.5]), 0.0);
        assert!((m.score_features(&[1.5, 0.5, 0.5, 0.5]) - 0.5).abs() < 1e-12);
        assert!((m.score_features(&[-2.0, 0.5, 0.5, 0.5]) - 2.0).abs() < 1e-12);
        // Score increases with distance.
        assert!(m.score_features(&[3.0, 0.0, 0.0, 0.0]) > m.score_features(&[2.0, 0.0, 0.0, 0.0]));
    }

    #[test]
    fn pattern_score_counts_flipped_bits() {
        let n = net();
        let fx = FeatureExtractor::new(&n, 2).unwrap();
        let backend = crate::pattern::PatternBackend::Bdd;
        let mut m = PatternMonitor::empty(fx, 1, vec![vec![0.0]; 4], backend).unwrap();
        m.absorb_point(&[1.0, 1.0, 1.0, 1.0]).unwrap(); // word 1111
        assert_eq!(m.score_features(&[1.0, 1.0, 1.0, 1.0]), 0.0);
        assert_eq!(m.score_features(&[-1.0, 1.0, 1.0, 1.0]), 1.0);
        assert_eq!(m.score_features(&[-1.0, -1.0, 1.0, 1.0]), 2.0);
        assert_eq!(m.score_features(&[-1.0, -1.0, -1.0, -1.0]), 4.0);
    }

    #[test]
    fn interval_score_counts_encoded_bits() {
        let n = net();
        let fx = FeatureExtractor::new(&n, 2).unwrap();
        let thresholds = vec![vec![0.0, 1.0, 2.0]; 4];
        let backend = crate::pattern::PatternBackend::Bdd;
        let mut m = PatternMonitor::empty(fx, 2, thresholds, backend).unwrap();
        m.absorb_point(&[0.5, 0.5, 0.5, 0.5]).unwrap(); // all symbol 01
        assert_eq!(m.score_features(&[0.5, 0.5, 0.5, 0.5]), 0.0);
        // One neuron to symbol 00 flips one bit.
        assert_eq!(m.score_features(&[-0.5, 0.5, 0.5, 0.5]), 1.0);
        // One neuron to symbol 10 flips two bits (01 -> 10).
        assert_eq!(m.score_features(&[1.5, 0.5, 0.5, 0.5]), 2.0);
    }

    #[test]
    fn score_zero_iff_no_warning() {
        let n = net();
        let mut rng = Prng::seed(83);
        let data: Vec<Vec<f64>> = (0..32).map(|_| rng.uniform_vec(2, -1.0, 1.0)).collect();
        for kind in [
            MonitorKind::min_max(),
            MonitorKind::pattern(),
            MonitorKind::interval(2),
        ] {
            let spec = MonitorSpec::new(2, kind);
            let m = spec.build(&n, &data).unwrap().as_single().cloned().unwrap();
            let mut scratch = QueryScratch::new();
            for _ in 0..100 {
                let probe = rng.uniform_vec(2, -2.0, 2.0);
                let features = m.extractor().features(&n, &probe).unwrap();
                let warns = m.verdict_features_scratch(&features, &mut scratch).warning;
                let score = m.score_features(&features);
                assert_eq!(warns, score > 0.0, "score/warning disagree");
            }
        }
    }
}
