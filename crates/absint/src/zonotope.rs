//! The zonotope domain: affine forms with shared noise symbols.
//!
//! A zonotope represents the set
//! `{ c + Σ_s g_s ε_s + e ⊙ η | ε_s ∈ [-1,1], η ∈ [-1,1]^d }`
//! where the `ε_s` are *shared* noise symbols (tracking correlations
//! introduced by affine layers) and `e ≥ 0` is a per-dimension *private*
//! deviation absorbing activation relaxations and floating-point rounding
//! slack. Affine layers are exact (up to the tracked rounding slack);
//! piecewise-linear activations use the standard minimal-area relaxation
//! (DeepZ); smooth activations and pooling fall back to interval
//! collapses, which is sound by monotonicity.

use crate::affine::AffineView;
use crate::boxdom::BoxBounds;
use crate::interval::{round_down, round_up};
use napmon_nn::{Activation, Layer, MaxPool2d};

/// A zonotope with private per-dimension deviations.
#[derive(Debug, Clone, PartialEq)]
pub struct Zonotope {
    /// Center point, one entry per dimension.
    center: Vec<f64>,
    /// Shared generators: `generators[s][dim]` is the coefficient of noise
    /// symbol `s` in the given dimension.
    generators: Vec<Vec<f64>>,
    /// Private non-negative deviation per dimension.
    error: Vec<f64>,
}

impl Zonotope {
    /// Builds the zonotope enclosing a box: one shared symbol per
    /// dimension with the box's radius as coefficient.
    pub fn from_box(b: &BoxBounds) -> Self {
        let d = b.dim();
        let mut center = Vec::with_capacity(d);
        let mut error = vec![0.0; d];
        let mut generators = Vec::with_capacity(d);
        for i in 0..d {
            let (l, h) = (b.lo()[i], b.hi()[i]);
            let c = 0.5 * (l + h);
            let r = 0.5 * (h - l);
            // Mid/rad computed in round-to-nearest: cover the slack.
            let slack = round_up(round_up((c - l).abs().max((h - c).abs())) - r).max(0.0);
            center.push(c);
            error[i] = slack;
            let mut g = vec![0.0; d];
            g[i] = r;
            generators.push(g);
        }
        Self {
            center,
            generators,
            error,
        }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.center.len()
    }

    /// Number of shared noise symbols.
    pub fn num_symbols(&self) -> usize {
        self.generators.len()
    }

    /// Sound per-dimension bounds (outward-rounded concretization).
    pub fn bounds(&self) -> BoxBounds {
        let d = self.dim();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for i in 0..d {
            let mut dev = self.error[i];
            for g in &self.generators {
                dev = round_up(dev + g[i].abs());
            }
            lo.push(round_down(self.center[i] - dev));
            hi.push(round_up(self.center[i] + dev));
        }
        BoxBounds::new(lo, hi)
    }

    /// Propagates through one affine view; rounding slack goes to `error`.
    pub(crate) fn step_affine(&self, view: &AffineView) -> Zonotope {
        assert_eq!(
            self.dim(),
            view.in_dim(),
            "zonotope affine: dimension mismatch"
        );
        let out = view.out_dim();
        let mut center = Vec::with_capacity(out);
        let mut error = vec![0.0; out];

        // Center: directed rounding to capture the true affine image.
        #[allow(clippy::needless_range_loop)] // r also indexes `error`
        for r in 0..out {
            let b = view.bias()[r];
            let (mut alo, mut ahi) = (b, b);
            for &(i, w) in view.row(r) {
                let p = w * self.center[i];
                alo = round_down(alo + round_down(p));
                ahi = round_up(ahi + round_up(p));
            }
            let mid = 0.5 * (alo + ahi);
            center.push(mid);
            error[r] = round_up(round_up(ahi - mid).max(round_up(mid - alo)));
        }

        // Shared generators: linear part only, slack into error.
        let mut generators = Vec::with_capacity(self.generators.len());
        for g in &self.generators {
            let mut out_g = vec![0.0; out];
            for (r, og) in out_g.iter_mut().enumerate() {
                let (mut alo, mut ahi) = (0.0, 0.0);
                for &(i, w) in view.row(r) {
                    let p = w * g[i];
                    alo = round_down(alo + round_down(p));
                    ahi = round_up(ahi + round_up(p));
                }
                let mid = 0.5 * (alo + ahi);
                *og = mid;
                error[r] = round_up(error[r] + round_up(ahi - mid).max(round_up(mid - alo)));
            }
            generators.push(out_g);
        }

        // Private deviations: |W| e, rounded up.
        for (r, err) in error.iter_mut().enumerate() {
            let mut acc = 0.0;
            for &(i, w) in view.row(r) {
                acc = round_up(acc + round_up(w.abs() * self.error[i]));
            }
            *err = round_up(*err + acc);
        }

        Zonotope {
            center,
            generators,
            error,
        }
    }

    /// Collapses dimension `i` to the interval `[l, h]` (center + private
    /// deviation, shared coefficients zeroed).
    fn collapse_dim(&mut self, i: usize, l: f64, h: f64) {
        self.center[i] = 0.5 * (l + h);
        let rad = round_up(round_up(h - self.center[i]).max(round_up(self.center[i] - l)));
        self.error[i] = rad.max(0.0);
        for g in &mut self.generators {
            g[i] = 0.0;
        }
    }

    /// Propagates through an activation.
    ///
    /// ReLU and leaky ReLU use the minimal-area linear relaxation; other
    /// activations collapse each dimension to its (exact, monotone) interval
    /// image.
    pub(crate) fn step_activation(&self, act: Activation) -> Zonotope {
        let pre = self.bounds();
        let mut z = self.clone();
        match act {
            Activation::Identity => {}
            Activation::Relu => {
                for i in 0..z.dim() {
                    let (l, u) = (pre.lo()[i], pre.hi()[i]);
                    if u <= 0.0 {
                        z.collapse_dim(i, 0.0, 0.0);
                    } else if l >= 0.0 {
                        // Exact.
                    } else {
                        // y = λ x + μ ± μ with λ ∈ [0,1] arbitrary; the
                        // enclosure below is valid for any such λ, so the
                        // rounding of λ itself cannot break soundness.
                        let lambda = (u / (u - l)).clamp(0.0, 1.0);
                        let m = round_up((-lambda * l).max((1.0 - lambda) * u)).max(0.0);
                        let mu = round_up(0.5 * m);
                        for g in &mut z.generators {
                            g[i] *= lambda;
                        }
                        // error picks up μ (half the offset range); center the other half.
                        z.error[i] = round_up(round_up(lambda * z.error[i]) + mu);
                        z.center[i] = lambda * z.center[i] + mu;
                        // Account for rounding of center multiplication.
                        z.error[i] =
                            round_up(z.error[i] + f64::EPSILON * (z.center[i].abs() + 1.0));
                    }
                }
            }
            Activation::LeakyRelu { alpha } => {
                for i in 0..z.dim() {
                    let (l, u) = (pre.lo()[i], pre.hi()[i]);
                    if u <= 0.0 || l >= 0.0 {
                        // Exact linear on this side: scale by alpha or 1.
                        let k = if u <= 0.0 { alpha } else { 1.0 };
                        if k != 1.0 {
                            z.center[i] *= k;
                            z.error[i] =
                                round_up(z.error[i] * k + f64::EPSILON * (z.center[i].abs() + 1.0));
                            for g in &mut z.generators {
                                g[i] *= k;
                            }
                        }
                    } else {
                        let lambda = ((u - alpha * l) / (u - l)).clamp(alpha, 1.0);
                        let m =
                            round_up(((lambda - alpha) * (-l)).max((1.0 - lambda) * u)).max(0.0);
                        let mu = round_up(0.5 * m);
                        for g in &mut z.generators {
                            g[i] *= lambda;
                        }
                        z.error[i] = round_up(round_up(lambda * z.error[i]) + mu);
                        z.center[i] = lambda * z.center[i] + mu;
                        z.error[i] =
                            round_up(z.error[i] + f64::EPSILON * (z.center[i].abs() + 1.0));
                    }
                }
            }
            Activation::Sigmoid | Activation::Tanh => {
                for i in 0..z.dim() {
                    let l = round_down(act.apply(pre.lo()[i]));
                    let h = round_up(act.apply(pre.hi()[i]));
                    z.collapse_dim(i, l, h);
                }
            }
        }
        z
    }

    /// Propagates through max pooling by interval collapse (sound; the
    /// window max of interval bounds encloses the true max).
    pub(crate) fn step_maxpool(&self, p: &MaxPool2d) -> Zonotope {
        let pre = self.bounds().step(&Layer::MaxPool2d(p.clone()));
        let d = pre.dim();
        let mut z = Zonotope {
            center: vec![0.0; d],
            generators: Vec::new(),
            error: vec![0.0; d],
        };
        for i in 0..d {
            z.collapse_dim(i, pre.lo()[i], pre.hi()[i]);
        }
        z
    }

    /// Propagates through one network layer.
    ///
    /// # Panics
    ///
    /// Panics if the zonotope dimension does not match the layer input.
    pub fn step(&self, layer: &Layer) -> Zonotope {
        if let Some(view) = AffineView::from_layer(layer) {
            return self.step_affine(&view);
        }
        match layer {
            Layer::MaxPool2d(p) => self.step_maxpool(p),
            Layer::Activation(a) => self.step_activation(*a),
            _ => unreachable!("non-affine layers are pooling or activation"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{Dense, LayerSpec, Network};
    use napmon_tensor::{Matrix, Prng};

    #[test]
    fn from_box_bounds_round_trip() {
        let b = BoxBounds::new(vec![-1.0, 2.0], vec![1.0, 4.0]);
        let z = Zonotope::from_box(&b);
        let back = z.bounds();
        assert!(back.encloses(&b));
        // And is tight to within rounding.
        assert!(back.mean_width() <= b.mean_width() + 1e-12);
    }

    #[test]
    fn affine_step_tracks_correlation() {
        // y0 = x0 + x1, y1 = x0 - x1 over the unit box: the zonotope knows
        // y0 + y1 = 2 x0 ∈ [-2, 2] even though each y spans [-2, 2].
        let d = Dense::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]),
            vec![0.0, 0.0],
        )
        .unwrap();
        let b = BoxBounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let z = Zonotope::from_box(&b).step(&Layer::Dense(d.clone()));
        // Apply the summing map (1,1): bounds must stay ~[-2,2], not [-4,4].
        let sum = Dense::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![0.0]).unwrap();
        let s = z.step(&Layer::Dense(sum));
        let sb = s.bounds();
        assert!(sb.hi()[0] <= 2.0 + 1e-9, "upper {}", sb.hi()[0]);
        assert!(sb.lo()[0] >= -2.0 - 1e-9, "lower {}", sb.lo()[0]);
        // The plain box domain cannot see this: it gives [-4, 4].
    }

    #[test]
    fn relu_relaxation_contains_samples_and_beats_nothing() {
        let mut rng = Prng::seed(5);
        let net = Network::seeded(
            3,
            2,
            &[
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let center = [0.3, -0.2];
        let input = BoxBounds::from_center_radius(&center, 0.2);
        let mut z = Zonotope::from_box(&input);
        for layer in net.layers() {
            z = z.step(layer);
        }
        let out = z.bounds();
        for _ in 0..500 {
            let x: Vec<f64> = (0..2)
                .map(|i| rng.uniform(center[i] - 0.2, center[i] + 0.2))
                .collect();
            assert!(
                out.contains(&net.forward(&x)),
                "sample escaped zonotope bounds"
            );
        }
    }

    #[test]
    fn zonotope_no_looser_than_box_on_affine_chain() {
        // Without nonlinearities the zonotope is exact, the box is not.
        let l1 = Dense::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]),
            vec![0.0, 0.0],
        )
        .unwrap();
        let l2 = Dense::new(
            Matrix::from_rows(&[&[0.5, 0.5], &[0.5, -0.5]]),
            vec![0.0, 0.0],
        )
        .unwrap();
        let input = BoxBounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let zb = Zonotope::from_box(&input)
            .step(&Layer::Dense(l1.clone()))
            .step(&Layer::Dense(l2.clone()))
            .bounds();
        let bb = input.step(&Layer::Dense(l1)).step(&Layer::Dense(l2));
        // (l2 ∘ l1)(x) = (x0, x1): exact range [-1,1]^2.
        assert!(zb.hi()[0] <= 1.0 + 1e-9 && zb.hi()[1] <= 1.0 + 1e-9);
        assert!(bb.hi()[0] >= 2.0 - 1e-9, "box is loose by design here");
        assert!(zb.mean_width() < bb.mean_width());
    }

    #[test]
    fn sigmoid_collapse_is_sound() {
        let mut rng = Prng::seed(6);
        let net = Network::seeded(
            8,
            2,
            &[
                LayerSpec::dense(4, Activation::Sigmoid),
                LayerSpec::dense(1, Activation::Tanh),
            ],
        );
        let input = BoxBounds::from_center_radius(&[0.1, 0.4], 0.3);
        let mut z = Zonotope::from_box(&input);
        for layer in net.layers() {
            z = z.step(layer);
        }
        let out = z.bounds();
        for _ in 0..300 {
            let x = vec![rng.uniform(-0.2, 0.4), rng.uniform(0.1, 0.7)];
            assert!(out.contains(&net.forward(&x)));
        }
    }

    #[test]
    fn maxpool_collapse_is_sound() {
        let p = MaxPool2d::new(1, 2, 2, 2, 2).unwrap();
        let input = BoxBounds::new(vec![0.0, -1.0, 2.0, -3.0], vec![1.0, 5.0, 2.5, 0.0]);
        let z = Zonotope::from_box(&input).step(&Layer::MaxPool2d(p));
        let out = z.bounds();
        assert!(out.lo()[0] <= 2.0 && out.hi()[0] >= 5.0);
    }

    #[test]
    fn stable_relu_dims_pass_through_exactly() {
        let b = BoxBounds::new(vec![1.0, -3.0], vec![2.0, -1.0]);
        let z = Zonotope::from_box(&b).step_activation(Activation::Relu);
        let out = z.bounds();
        assert!(out.lo()[0] <= 1.0 && out.hi()[0] >= 2.0);
        assert!(
            out.hi()[0] - out.lo()[0] < 1.0 + 1e-9,
            "positive dim stays tight"
        );
        assert!(out.lo()[1].abs() <= 1e-300 && out.hi()[1].abs() <= 1e-300);
    }
}
