//! A DeepPoly-style polyhedral domain with back-substitution.
//!
//! Every neuron of every boundary gets one symbolic *lower* and one
//! symbolic *upper* affine bound expressed over the previous boundary
//! (affine layers are exact; ReLU gets the classic triangle upper bound
//! and a slope-0/1 lower bound). Concrete bounds are obtained by
//! back-substituting the symbolic bounds boundary by boundary down to the
//! input box — which is what makes the relaxation tighter than layer-local
//! interval propagation: cancellations across layers are kept symbolic
//! until the very end.
//!
//! Like the star domain, the arithmetic here is plain `f64` without
//! directed rounding; results are inflated by a small epsilon
//! ([`POLY_EPS`]) and the [`crate::propagate::Propagator`] meets them with
//! the rigorously-rounded box chain. Randomized containment tests cover
//! the construction (see below and `crates/absint/tests`).

use crate::affine::AffineView;
use crate::boxdom::BoxBounds;
use crate::interval::{round_down, round_up};
use napmon_nn::{Activation, Layer, Network};

/// Relative/absolute inflation applied to back-substituted bounds.
pub const POLY_EPS: f64 = 1e-9;

/// An affine expression `coeffs · x + constant` over some boundary.
#[derive(Debug, Clone, PartialEq)]
struct LinExpr {
    coeffs: Vec<f64>,
    constant: f64,
}

impl LinExpr {
    fn constant(c: f64, width: usize) -> Self {
        Self {
            coeffs: vec![0.0; width],
            constant: c,
        }
    }

    fn unit(i: usize, width: usize) -> Self {
        let mut coeffs = vec![0.0; width];
        coeffs[i] = 1.0;
        Self {
            coeffs,
            constant: 0.0,
        }
    }
}

/// Symbolic bounds of one boundary's neurons over the previous boundary.
#[derive(Debug, Clone)]
struct Relaxation {
    /// `y_j ≥ lower[j](x_prev)`.
    lower: Vec<LinExpr>,
    /// `y_j ≤ upper[j](x_prev)`.
    upper: Vec<LinExpr>,
}

/// The DeepPoly-style analyzer for one network slice.
#[derive(Debug, Clone)]
pub struct PolyAnalysis {
    /// Relaxations per layer (index i relates boundary `from+i+1` to
    /// boundary `from+i`).
    relaxations: Vec<Relaxation>,
    input: BoxBounds,
}

impl PolyAnalysis {
    /// Runs the analysis over layers `from+1..=to` of `net` with the given
    /// input box at boundary `from`, computing relaxations layer by layer
    /// (each activation relaxation needs concrete pre-activation bounds,
    /// obtained by back-substitution through everything built so far).
    ///
    /// # Panics
    ///
    /// Panics if the range or box dimension is invalid.
    pub fn run(net: &Network, from: usize, to: usize, input: &BoxBounds) -> Self {
        assert!(
            from <= to && to <= net.num_layers(),
            "invalid layer range {from}..{to}"
        );
        assert_eq!(
            input.dim(),
            net.dim_at(from),
            "input box dimension at boundary {from}"
        );
        let mut analysis = Self {
            relaxations: Vec::with_capacity(to - from),
            input: input.clone(),
        };
        for li in from..to {
            let layer = &net.layers()[li];
            let in_dim = net.dim_at(li);
            let rel = if let Some(view) = AffineView::from_layer(layer) {
                Self::affine_relaxation(&view)
            } else {
                match layer {
                    Layer::Activation(a) => {
                        let pre = analysis.boundary_bounds(analysis.relaxations.len());
                        Self::activation_relaxation(*a, &pre)
                    }
                    Layer::MaxPool2d(_) => {
                        let pre = analysis.boundary_bounds(analysis.relaxations.len());
                        let post = pre.step(layer);
                        Self::constant_relaxation(&post, in_dim)
                    }
                    _ => unreachable!("non-affine layers are pooling or activation"),
                }
            };
            analysis.relaxations.push(rel);
        }
        analysis
    }

    fn affine_relaxation(view: &AffineView) -> Relaxation {
        let exprs: Vec<LinExpr> = (0..view.out_dim())
            .map(|r| {
                let mut coeffs = vec![0.0; view.in_dim()];
                for &(i, w) in view.row(r) {
                    coeffs[i] = w;
                }
                LinExpr {
                    coeffs,
                    constant: view.bias()[r],
                }
            })
            .collect();
        Relaxation {
            lower: exprs.clone(),
            upper: exprs,
        }
    }

    fn activation_relaxation(act: Activation, pre: &BoxBounds) -> Relaxation {
        let d = pre.dim();
        let mut lower = Vec::with_capacity(d);
        let mut upper = Vec::with_capacity(d);
        for j in 0..d {
            let (l, u) = (pre.lo()[j], pre.hi()[j]);
            match act {
                Activation::Identity => {
                    lower.push(LinExpr::unit(j, d));
                    upper.push(LinExpr::unit(j, d));
                }
                Activation::Relu => {
                    if u <= 0.0 {
                        lower.push(LinExpr::constant(0.0, d));
                        upper.push(LinExpr::constant(0.0, d));
                    } else if l >= 0.0 {
                        lower.push(LinExpr::unit(j, d));
                        upper.push(LinExpr::unit(j, d));
                    } else {
                        // Upper: the triangle chord y ≤ λ (x − l).
                        let lambda = u / (u - l);
                        let mut up = LinExpr::unit(j, d);
                        up.coeffs[j] = lambda;
                        up.constant = round_up(-lambda * l);
                        upper.push(up);
                        // Lower: y ≥ αx with α ∈ {0, 1} (area heuristic).
                        let alpha = if u >= -l { 1.0 } else { 0.0 };
                        let mut lo = LinExpr::unit(j, d);
                        lo.coeffs[j] = alpha;
                        lower.push(lo);
                    }
                }
                Activation::LeakyRelu { alpha: slope } => {
                    if u <= 0.0 {
                        let mut e = LinExpr::unit(j, d);
                        e.coeffs[j] = slope;
                        lower.push(e.clone());
                        upper.push(e);
                    } else if l >= 0.0 {
                        lower.push(LinExpr::unit(j, d));
                        upper.push(LinExpr::unit(j, d));
                    } else {
                        // Chord through (l, slope·l) and (u, u):
                        // y ≤ λ x + (slope − λ) l  with  λ = (u − slope·l)/(u − l).
                        let lambda = ((u - slope * l) / (u - l)).clamp(slope, 1.0);
                        let mut up = LinExpr::unit(j, d);
                        up.coeffs[j] = lambda;
                        up.constant = round_up((slope - lambda) * l);
                        upper.push(up);
                        let pick = if u >= -l { 1.0 } else { slope };
                        let mut lo = LinExpr::unit(j, d);
                        lo.coeffs[j] = pick;
                        lower.push(lo);
                    }
                }
                Activation::Sigmoid | Activation::Tanh => {
                    // Monotone interval collapse (sound, constant bounds).
                    lower.push(LinExpr::constant(round_down(act.apply(l)), d));
                    upper.push(LinExpr::constant(round_up(act.apply(u)), d));
                }
            }
        }
        Relaxation { lower, upper }
    }

    fn constant_relaxation(post: &BoxBounds, in_dim: usize) -> Relaxation {
        Relaxation {
            lower: post
                .lo()
                .iter()
                .map(|&l| LinExpr::constant(l, in_dim))
                .collect(),
            upper: post
                .hi()
                .iter()
                .map(|&u| LinExpr::constant(u, in_dim))
                .collect(),
        }
    }

    /// Concrete bounds of the boundary after `depth` analyzed layers, via
    /// back-substitution to the input box.
    fn boundary_bounds(&self, depth: usize) -> BoxBounds {
        let width = if depth == 0 {
            self.input.dim()
        } else {
            self.relaxations[depth - 1].lower.len()
        };
        let mut lo = Vec::with_capacity(width);
        let mut hi = Vec::with_capacity(width);
        for j in 0..width {
            lo.push(self.bound_one(depth, j, false));
            hi.push(self.bound_one(depth, j, true));
        }
        // Floating-point slack can invert near-degenerate bounds.
        for j in 0..width {
            if lo[j] > hi[j] {
                let mid = 0.5 * (lo[j] + hi[j]);
                lo[j] = mid;
                hi[j] = mid;
            }
        }
        BoxBounds::new(lo, hi)
    }

    /// Back-substitutes one neuron's bound from boundary `depth` to the
    /// input and evaluates over the input box.
    fn bound_one(&self, depth: usize, neuron: usize, want_upper: bool) -> f64 {
        let width = if depth == 0 {
            self.input.dim()
        } else {
            self.relaxations[depth - 1].lower.len()
        };
        let mut expr = LinExpr::unit(neuron, width);
        for level in (0..depth).rev() {
            expr = self.substitute(&expr, level, want_upper);
        }
        // Evaluate over the input box.
        let mut acc = expr.constant;
        for (i, &c) in expr.coeffs.iter().enumerate() {
            if c > 0.0 {
                acc += c * if want_upper {
                    self.input.hi()[i]
                } else {
                    self.input.lo()[i]
                };
            } else if c < 0.0 {
                acc += c * if want_upper {
                    self.input.lo()[i]
                } else {
                    self.input.hi()[i]
                };
            }
        }
        let pad = POLY_EPS * (1.0 + acc.abs());
        if want_upper {
            round_up(acc + pad)
        } else {
            round_down(acc - pad)
        }
    }

    /// Rewrites `expr` (over the output of `level`) into an expression over
    /// the input of `level`, choosing lower/upper relaxations per sign.
    fn substitute(&self, expr: &LinExpr, level: usize, want_upper: bool) -> LinExpr {
        let rel = &self.relaxations[level];
        let in_width = if level == 0 {
            self.input.dim()
        } else {
            self.relaxations[level - 1].lower.len()
        };
        let mut out = LinExpr::constant(expr.constant, in_width);
        for (j, &c) in expr.coeffs.iter().enumerate() {
            if c == 0.0 {
                continue;
            }
            // For an upper bound, positive coefficients take the upper
            // relaxation and negative ones the lower (vice versa for a
            // lower bound).
            let use_upper = (c > 0.0) == want_upper;
            let sub = if use_upper {
                &rel.upper[j]
            } else {
                &rel.lower[j]
            };
            for (i, &sc) in sub.coeffs.iter().enumerate() {
                out.coeffs[i] += c * sc;
            }
            out.constant += c * sub.constant;
        }
        out
    }

    /// Concrete bounds of the final analyzed boundary.
    pub fn output_bounds(&self) -> BoxBounds {
        self.boundary_bounds(self.relaxations.len())
    }
}

/// One-shot DeepPoly bounds of `G^{from+1→to}` over `input`.
///
/// # Panics
///
/// Panics if the range or box dimension is invalid.
pub fn poly_bounds(net: &Network, from: usize, to: usize, input: &BoxBounds) -> BoxBounds {
    PolyAnalysis::run(net, from, to, input).output_bounds()
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{Dense, LayerSpec};
    use napmon_tensor::{Matrix, Prng};

    fn net(seed: u64) -> Network {
        Network::seeded(
            seed,
            3,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        )
    }

    #[test]
    fn affine_chain_is_essentially_exact() {
        // Rotate then sum: poly keeps the cancellation that boxes lose.
        let rot = Dense::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]),
            vec![0.0, 0.0],
        )
        .unwrap();
        let sum = Dense::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![0.0]).unwrap();
        let net = Network::from_layers(2, vec![Layer::Dense(rot), Layer::Dense(sum)]).unwrap();
        let input = BoxBounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let out = poly_bounds(&net, 0, 2, &input);
        assert!(out.hi()[0] <= 2.0 + 1e-6, "upper {}", out.hi()[0]);
        assert!(out.lo()[0] >= -2.0 - 1e-6, "lower {}", out.lo()[0]);
    }

    #[test]
    fn contains_concrete_images_through_relu() {
        let net = net(5);
        let mut rng = Prng::seed(6);
        let center = [0.2, -0.3, 0.1];
        let delta = 0.15;
        let input = BoxBounds::from_center_radius(&center, delta);
        let out = poly_bounds(&net, 0, net.num_layers(), &input);
        for _ in 0..500 {
            let x: Vec<f64> = center
                .iter()
                .map(|&c| rng.uniform(c - delta, c + delta))
                .collect();
            assert!(
                out.contains(&net.forward(&x)),
                "concrete image escaped poly bounds"
            );
        }
    }

    #[test]
    fn no_looser_than_box_after_meet_semantics() {
        // Raw poly bounds should usually beat boxes; we assert on a fixed
        // seed where ReLU instability matters.
        let net = net(7);
        let input = BoxBounds::from_center_radius(&[0.1, 0.0, -0.1], 0.25);
        let poly = poly_bounds(&net, 0, net.num_layers(), &input);
        let boxb = {
            let mut b = input.clone();
            for layer in net.layers() {
                b = b.step(layer);
            }
            b
        };
        assert!(
            poly.mean_width() <= boxb.mean_width() + 1e-9,
            "poly {} vs box {}",
            poly.mean_width(),
            boxb.mean_width()
        );
    }

    #[test]
    fn zero_radius_tracks_the_point() {
        let net = net(9);
        let x = [0.3, 0.3, 0.3];
        let out = poly_bounds(&net, 0, net.num_layers(), &BoxBounds::from_point(&x));
        assert!(out.contains(&net.forward(&x)));
        assert!(out.mean_width() < 1e-6);
    }

    #[test]
    fn mid_boundary_slices_work() {
        let net = net(11);
        let x = [0.5, -0.5, 0.0];
        let mid = net.forward_prefix(&x, 2);
        let input = BoxBounds::from_center_radius(&mid, 0.05);
        let out = poly_bounds(&net, 2, net.num_layers(), &input);
        let mut rng = Prng::seed(12);
        for _ in 0..200 {
            let pert: Vec<f64> = mid.iter().map(|&m| m + rng.uniform(-0.05, 0.05)).collect();
            assert!(out.contains(&net.forward_range(&pert, 2, net.num_layers())));
        }
    }

    #[test]
    fn sigmoid_collapse_is_sound() {
        let net = Network::seeded(
            13,
            2,
            &[
                LayerSpec::dense(4, Activation::Sigmoid),
                LayerSpec::dense(1, Activation::Identity),
            ],
        );
        let input = BoxBounds::from_center_radius(&[0.0, 0.0], 0.4);
        let out = poly_bounds(&net, 0, net.num_layers(), &input);
        let mut rng = Prng::seed(14);
        for _ in 0..200 {
            let x = vec![rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4)];
            assert!(out.contains(&net.forward(&x)));
        }
    }

    #[test]
    fn leaky_relu_relaxation_is_sound() {
        let net = Network::seeded(
            15,
            2,
            &[
                LayerSpec::dense(6, Activation::LeakyRelu { alpha: 0.1 }),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let input = BoxBounds::from_center_radius(&[0.1, -0.1], 0.3);
        let out = poly_bounds(&net, 0, net.num_layers(), &input);
        let mut rng = Prng::seed(16);
        for _ in 0..300 {
            let x = vec![rng.uniform(-0.2, 0.4), rng.uniform(-0.4, 0.2)];
            assert!(out.contains(&net.forward(&x)), "leaky relu sample escaped");
        }
    }

    #[test]
    fn maxpool_collapse_is_sound() {
        use napmon_nn::MaxPool2d;
        let p = MaxPool2d::new(1, 2, 2, 2, 2).unwrap();
        let d = Dense::new(Matrix::from_rows(&[&[2.0]]), vec![0.5]).unwrap();
        let net = Network::from_layers(4, vec![Layer::MaxPool2d(p), Layer::Dense(d)]).unwrap();
        let input = BoxBounds::new(vec![0.0, -1.0, 2.0, -3.0], vec![1.0, 5.0, 2.5, 0.0]);
        let out = poly_bounds(&net, 0, 2, &input);
        // max in [2, 5] -> affine: [4.5, 10.5].
        assert!(out.lo()[0] <= 4.5 + 1e-6 && out.hi()[0] >= 10.5 - 1e-6);
    }
}
