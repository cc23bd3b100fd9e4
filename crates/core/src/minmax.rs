//! Min-max ("outside the box") monitors.

use crate::error::MonitorError;
use crate::feature::FeatureExtractor;
use crate::monitor::{Monitor, QueryScratch, Verdict, Violation};
use napmon_absint::BoxBounds;
use serde::{Deserialize, Serialize};

/// A per-neuron `[L_j, U_j]` monitor (Henzinger et al., ECAI 2020; also
/// §III-A of the paper).
///
/// Standard construction folds each training feature vector with
/// `L_j ← min(L_j, v_j)`, `U_j ← max(U_j, v_j)`. The robust construction
/// (§III-B) folds the *perturbation estimate* `[l_j, u_j]` instead, so the
/// recorded box already covers every `Δ`-perturbation of every training
/// input. A query warns iff some feature leaves its recorded range.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinMaxMonitor {
    extractor: FeatureExtractor,
    lo: Vec<f64>,
    hi: Vec<f64>,
    samples: usize,
}

impl MinMaxMonitor {
    /// Creates an empty monitor (`M_0 = ⟨(∞,−∞),…⟩`): every query warns
    /// until something is folded in.
    pub fn empty(extractor: FeatureExtractor) -> Self {
        let d = extractor.dim();
        Self {
            extractor,
            lo: vec![f64::INFINITY; d],
            hi: vec![f64::NEG_INFINITY; d],
            samples: 0,
        }
    }

    /// Folds one feature vector (standard construction, `⊎`).
    ///
    /// # Panics
    ///
    /// Panics if `features.len()` differs from the monitor dimension.
    pub fn absorb_point(&mut self, features: &[f64]) {
        assert_eq!(
            features.len(),
            self.lo.len(),
            "absorb_point: dimension mismatch"
        );
        for (j, &v) in features.iter().enumerate() {
            self.lo[j] = self.lo[j].min(v);
            self.hi[j] = self.hi[j].max(v);
        }
        self.samples += 1;
    }

    /// Folds one perturbation estimate (robust construction, `⊎_R`).
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim()` differs from the monitor dimension.
    pub fn absorb_bounds(&mut self, bounds: &BoxBounds) {
        assert_eq!(
            bounds.dim(),
            self.lo.len(),
            "absorb_bounds: dimension mismatch"
        );
        for j in 0..self.lo.len() {
            self.lo[j] = self.lo[j].min(bounds.lo()[j]);
            self.hi[j] = self.hi[j].max(bounds.hi()[j]);
        }
        self.samples += 1;
    }

    /// Enlarges every recorded interval by `gamma` times its width on each
    /// side — the validation-set "bloating" knob of Henzinger et al.,
    /// included as a baseline against the paper's provable alternative.
    ///
    /// # Panics
    ///
    /// Panics if `gamma < 0`.
    pub fn enlarge(&mut self, gamma: f64) {
        assert!(gamma >= 0.0, "enlarge: negative gamma {gamma}");
        for j in 0..self.lo.len() {
            if self.lo[j] > self.hi[j] {
                continue; // untouched dimension of an empty monitor
            }
            let w = self.hi[j] - self.lo[j];
            self.lo[j] -= gamma * w;
            self.hi[j] += gamma * w;
        }
    }

    /// Recorded per-neuron lower bounds.
    pub fn lo(&self) -> &[f64] {
        &self.lo
    }

    /// Recorded per-neuron upper bounds.
    pub fn hi(&self) -> &[f64] {
        &self.hi
    }

    /// Number of absorbed samples.
    pub fn samples(&self) -> usize {
        self.samples
    }

    /// Mean recorded interval width (a capacity metric: wider boxes warn
    /// less but also detect less).
    pub fn mean_width(&self) -> f64 {
        if self.samples == 0 || self.lo.is_empty() {
            return 0.0;
        }
        self.lo
            .iter()
            .zip(&self.hi)
            .map(|(l, h)| h - l)
            .sum::<f64>()
            / self.lo.len() as f64
    }
}

impl Monitor for MinMaxMonitor {
    fn extractor(&self) -> &FeatureExtractor {
        &self.extractor
    }

    /// Min-max verdicts allocate nothing to reuse, so the scratch is
    /// unused.
    fn verdict_features_scratch(&self, features: &[f64], _: &mut QueryScratch) -> Verdict {
        assert_eq!(features.len(), self.lo.len(), "verdict: dimension mismatch");
        let mut violations = Vec::new();
        for (j, &v) in features.iter().enumerate() {
            if v < self.lo[j] {
                violations.push(Violation::BelowMin {
                    neuron: j,
                    value: v,
                    bound: self.lo[j],
                });
            } else if v > self.hi[j] {
                violations.push(Violation::AboveMax {
                    neuron: j,
                    value: v,
                    bound: self.hi[j],
                });
            }
        }
        if violations.is_empty() {
            Verdict::ok()
        } else {
            Verdict::warn(violations)
        }
    }
}

/// Convenience: builds a standard min-max monitor from feature vectors.
///
/// # Errors
///
/// Returns [`MonitorError::EmptyTrainingSet`] if `features` is empty.
///
/// # Panics
///
/// Panics if any feature vector has the wrong dimension.
pub fn from_features(
    extractor: FeatureExtractor,
    features: &[Vec<f64>],
) -> Result<MinMaxMonitor, MonitorError> {
    if features.is_empty() {
        return Err(MonitorError::EmptyTrainingSet);
    }
    let mut m = MinMaxMonitor::empty(extractor);
    for f in features {
        m.absorb_point(f);
    }
    Ok(m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{Activation, LayerSpec, Network};

    fn verdict(m: &MinMaxMonitor, features: &[f64]) -> Verdict {
        m.verdict_features_scratch(features, &mut QueryScratch::new())
    }

    fn warns(m: &MinMaxMonitor, features: &[f64]) -> bool {
        verdict(m, features).warning
    }

    fn extractor() -> (Network, FeatureExtractor) {
        let net = Network::seeded(3, 2, &[LayerSpec::dense(3, Activation::Relu)]);
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        (net, fx)
    }

    #[test]
    fn empty_monitor_warns_on_everything() {
        let (_, fx) = extractor();
        let m = MinMaxMonitor::empty(fx);
        assert!(warns(&m, &[0.0, 0.0, 0.0]));
        assert_eq!(m.samples(), 0);
    }

    #[test]
    fn absorbed_points_do_not_warn() {
        let (_, fx) = extractor();
        let mut m = MinMaxMonitor::empty(fx);
        m.absorb_point(&[1.0, 2.0, 3.0]);
        m.absorb_point(&[0.0, 5.0, 3.0]);
        assert!(!warns(&m, &[1.0, 2.0, 3.0]));
        assert!(!warns(&m, &[0.5, 3.0, 3.0])); // inside the box hull
        assert!(warns(&m, &[2.0, 3.0, 3.0])); // neuron 0 above max
    }

    #[test]
    fn verdict_reports_direction_and_neuron() {
        let (_, fx) = extractor();
        let mut m = MinMaxMonitor::empty(fx);
        m.absorb_point(&[0.0, 0.0, 0.0]);
        m.absorb_point(&[1.0, 1.0, 1.0]);
        let v = verdict(&m, &[-0.5, 0.5, 2.0]);
        assert!(v.warning);
        assert_eq!(v.violations.len(), 2);
        assert!(matches!(
            v.violations[0],
            Violation::BelowMin { neuron: 0, .. }
        ));
        assert!(matches!(
            v.violations[1],
            Violation::AboveMax { neuron: 2, .. }
        ));
    }

    #[test]
    fn absorb_bounds_widens_like_robust_rule() {
        let (_, fx) = extractor();
        let mut m = MinMaxMonitor::empty(fx);
        m.absorb_bounds(&BoxBounds::new(vec![-0.1, 0.0, 0.5], vec![0.1, 0.2, 0.9]));
        assert!(!warns(&m, &[0.09, 0.1, 0.6]));
        assert!(warns(&m, &[0.2, 0.1, 0.6]));
        assert_eq!(m.lo(), &[-0.1, 0.0, 0.5]);
        assert_eq!(m.hi(), &[0.1, 0.2, 0.9]);
    }

    #[test]
    fn enlarge_bloats_symmetrically() {
        let (_, fx) = extractor();
        let mut m = MinMaxMonitor::empty(fx);
        m.absorb_point(&[0.0, 0.0, 0.0]);
        m.absorb_point(&[1.0, 2.0, 4.0]);
        m.enlarge(0.5);
        assert_eq!(m.lo(), &[-0.5, -1.0, -2.0]);
        assert_eq!(m.hi(), &[1.5, 3.0, 6.0]);
    }

    #[test]
    fn from_features_builds_hull() {
        let (_, fx) = extractor();
        let m = from_features(fx, &[vec![1.0, 0.0, 0.0], vec![0.0, 1.0, 0.0]]).unwrap();
        assert_eq!(m.samples(), 2);
        assert!(!warns(&m, &[0.5, 0.5, 0.0]));
    }

    #[test]
    fn from_features_rejects_empty() {
        let (_, fx) = extractor();
        assert!(matches!(
            from_features(fx, &[]),
            Err(MonitorError::EmptyTrainingSet)
        ));
    }

    #[test]
    fn end_to_end_warns_through_network() {
        let (net, fx) = extractor();
        let mut m = MinMaxMonitor::empty(fx);
        let train = vec![vec![0.1, 0.1], vec![0.2, -0.1]];
        for x in &train {
            let f = m.extractor().features(&net, x).unwrap();
            m.absorb_point(&f);
        }
        for x in &train {
            assert!(!m.warns(&net, x).unwrap());
        }
        // A far-away input should trip at least one bound.
        assert!(m.warns(&net, &[50.0, -50.0]).unwrap());
    }

    #[test]
    fn non_finite_inputs_warn_standard_and_robust() {
        let net = Network::seeded(
            5,
            4,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let mut rng = napmon_tensor::Prng::seed(6);
        let train: Vec<Vec<f64>> = (0..32).map(|_| rng.uniform_vec(4, -0.5, 0.5)).collect();
        let probes = [
            vec![f64::NAN; 4],
            vec![0.1, f64::NAN, 0.2, 0.3],
            vec![f64::INFINITY; 4],
        ];
        let standard = crate::MonitorSpec::new(1, crate::MonitorKind::min_max());
        let robust = standard.clone().robust(0.03, 0, napmon_absint::Domain::Box);
        for spec in [standard, robust] {
            let m = spec.build(&net, &train).unwrap();
            let batch = m.query_batch(&net, &probes).unwrap();
            for (x, batched) in probes.iter().zip(&batch) {
                let coordinate = x.iter().position(|v| !v.is_finite()).unwrap();
                let expected = Verdict::warn(vec![Violation::NonFinite { coordinate }]);
                assert!(m.warns(&net, x).unwrap(), "{x:?}");
                assert_eq!(m.verdict(&net, x).unwrap(), expected);
                assert_eq!(*batched, expected);
            }
        }
    }

    #[test]
    fn mean_width_tracks_box_size() {
        let (_, fx) = extractor();
        let mut m = MinMaxMonitor::empty(fx);
        m.absorb_point(&[0.0, 0.0, 0.0]);
        assert_eq!(m.mean_width(), 0.0);
        m.absorb_point(&[3.0, 0.0, 0.0]);
        assert!((m.mean_width() - 1.0).abs() < 1e-12);
    }
}
