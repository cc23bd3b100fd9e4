//! The star-set domain (Tran et al., FM 2019) with approximate ReLU.
//!
//! A star set is `{ c + V α | α ∈ [α_lo, α_hi], A α ≤ b }`: an affine image
//! of a constrained symbol box. Affine layers transform `(c, V)` exactly;
//! ReLU uses the *approximate star* relaxation, which introduces one fresh
//! symbol and three linear constraints per unstable neuron and never splits
//! — so a single star flows through the network. Dimension bounds are LP
//! queries ([`crate::simplex`]).
//!
//! Unlike the box/zonotope domains, the star bounds come out of a
//! floating-point LP solver without directed rounding; [`StarSet::bounds`]
//! therefore inflates results by a small relative epsilon (documented, and
//! covered by randomized containment tests). The paper's own implementation
//! used boxed abstraction; stars are provided for the tightness/runtime
//! ablation (experiment A4).

use crate::affine::AffineView;
use crate::boxdom::BoxBounds;
use crate::interval::{round_down, round_up};
use crate::simplex::{maximize_boxed, LpError};
use napmon_nn::{Activation, Layer, MaxPool2d};

/// Relative inflation applied to LP-computed bounds to absorb solver
/// rounding.
const LP_EPS: f64 = 1e-7;

/// A star set over `α`-symbols.
#[derive(Debug, Clone, PartialEq)]
pub struct StarSet {
    /// Center `c`, one entry per dimension.
    center: Vec<f64>,
    /// Basis vectors per symbol: `basis[s][dim]` (the column `V_{·,s}`).
    basis: Vec<Vec<f64>>,
    /// Per-symbol box bounds.
    alpha_lo: Vec<f64>,
    alpha_hi: Vec<f64>,
    /// Additional linear constraints `a · α ≤ b`.
    constraints: Vec<(Vec<f64>, f64)>,
}

impl StarSet {
    /// Builds the star representing a box: identity basis, `α ∈ box`.
    pub fn from_box(b: &BoxBounds) -> Self {
        let d = b.dim();
        let center = (0..d)
            .map(|i| 0.5 * (b.lo()[i] + b.hi()[i]))
            .collect::<Vec<_>>();
        let mut basis = Vec::with_capacity(d);
        for i in 0..d {
            let mut col = vec![0.0; d];
            // Radius rounded up so the star encloses the box despite
            // mid-point rounding.
            col[i] = round_up(0.5 * (b.hi()[i] - b.lo()[i]));
            basis.push(col);
        }
        Self {
            center,
            basis,
            alpha_lo: vec![-1.0; d],
            alpha_hi: vec![1.0; d],
            constraints: Vec::new(),
        }
    }

    /// Number of dimensions.
    pub fn dim(&self) -> usize {
        self.center.len()
    }

    /// Number of `α`-symbols.
    pub fn num_symbols(&self) -> usize {
        self.basis.len()
    }

    /// Number of accumulated linear constraints.
    pub fn num_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// LP objective for dimension `i`: the row `V_{i,·}`.
    fn row(&self, i: usize) -> Vec<f64> {
        self.basis.iter().map(|col| col[i]).collect()
    }

    /// LP-computed bounds of dimension `i` (inflated by `LP_EPS`).
    fn dim_bounds(&self, i: usize) -> Result<(f64, f64), LpError> {
        let obj = self.row(i);
        if obj.iter().all(|&v| v == 0.0) {
            return Ok((self.center[i], self.center[i]));
        }
        let max = maximize_boxed(&obj, &self.alpha_lo, &self.alpha_hi, &self.constraints)?;
        let neg: Vec<f64> = obj.iter().map(|v| -v).collect();
        let min = maximize_boxed(&neg, &self.alpha_lo, &self.alpha_hi, &self.constraints)?;
        let hi = self.center[i] + max.objective;
        let lo = self.center[i] - min.objective;
        let scale = 1.0 + LP_EPS;
        let pad = LP_EPS * (1.0 + lo.abs().max(hi.abs()));
        Ok((
            round_down(lo * if lo < 0.0 { scale } else { 1.0 / scale } - pad),
            round_up(hi * if hi > 0.0 { scale } else { 1.0 / scale } + pad),
        ))
    }

    /// Sound per-dimension bounds of the star.
    ///
    /// # Panics
    ///
    /// Panics if an internal LP is infeasible or unbounded — both indicate
    /// a bug, since star predicates always contain a witness point and all
    /// symbols are boxed.
    pub fn bounds(&self) -> BoxBounds {
        let d = self.dim();
        let mut lo = Vec::with_capacity(d);
        let mut hi = Vec::with_capacity(d);
        for i in 0..d {
            let (l, h) = self
                .dim_bounds(i)
                .expect("star LP must be feasible and bounded");
            lo.push(l.min(h));
            hi.push(h.max(l));
        }
        BoxBounds::new(lo, hi)
    }

    /// Propagates through one affine view (exact on `(c, V)`).
    pub(crate) fn step_affine(&self, view: &AffineView) -> StarSet {
        assert_eq!(self.dim(), view.in_dim(), "star affine: dimension mismatch");
        let center = view.apply(&self.center);
        let basis = self
            .basis
            .iter()
            .map(|col| view.apply_linear(col))
            .collect();
        StarSet {
            center,
            basis,
            alpha_lo: self.alpha_lo.clone(),
            alpha_hi: self.alpha_hi.clone(),
            constraints: self.constraints.clone(),
        }
    }

    /// Zeroes dimension `i` (used for provably-inactive ReLU neurons).
    fn zero_dim(&mut self, i: usize) {
        self.center[i] = 0.0;
        for col in &mut self.basis {
            col[i] = 0.0;
        }
    }

    /// Adds a fresh symbol with box `[lo, hi]`, returning its index.
    fn push_symbol(&mut self, lo: f64, hi: f64) -> usize {
        let d = self.dim();
        self.basis.push(vec![0.0; d]);
        self.alpha_lo.push(lo);
        self.alpha_hi.push(hi);
        for (a, _) in &mut self.constraints {
            a.push(0.0);
        }
        self.num_symbols() - 1
    }

    /// Approximate-star ReLU.
    pub(crate) fn step_relu(&self) -> StarSet {
        let mut star = self.clone();
        for i in 0..star.dim() {
            let (l, u) = star
                .dim_bounds(i)
                .expect("star LP must be feasible and bounded");
            if u <= 0.0 {
                star.zero_dim(i);
            } else if l >= 0.0 {
                // Exact.
            } else {
                // Unstable: y_i = α_new with
                //   α_new ≥ 0            (via the symbol's box)
                //   α_new ≥ x_i          (x_i = c_i + V_i α)
                //   α_new ≤ λ (x_i - l)  with λ = u / (u - l)
                let lambda = (u / (u - l)).clamp(0.0, 1.0);
                let old_row = star.row(i);
                let c_i = star.center[i];
                let s = star.push_symbol(0.0, round_up(u));
                let n = star.num_symbols();
                // V_i α - α_new ≤ -c_i
                let mut a1 = vec![0.0; n];
                a1[..old_row.len()].copy_from_slice(&old_row);
                a1[s] = -1.0;
                star.constraints.push((a1, -c_i));
                // α_new - λ V_i α ≤ λ (c_i - l)
                let mut a2 = vec![0.0; n];
                for (j, v) in old_row.iter().enumerate() {
                    a2[j] = -lambda * v;
                }
                a2[s] = 1.0;
                star.constraints.push((a2, round_up(lambda * (c_i - l))));
                // Output dim now reads the fresh symbol.
                star.zero_dim(i);
                star.basis[s][i] = 1.0;
            }
        }
        star
    }

    /// Collapses every dimension to its interval image under a monotone
    /// activation (fallback for non-piecewise-linear activations).
    fn step_monotone_collapse(&self, act: Activation) -> StarSet {
        let pre = self.bounds();
        let d = self.dim();
        let mut star = StarSet {
            center: vec![0.0; d],
            basis: Vec::new(),
            alpha_lo: Vec::new(),
            alpha_hi: Vec::new(),
            constraints: Vec::new(),
        };
        for i in 0..d {
            let l = round_down(act.apply(pre.lo()[i]));
            let h = round_up(act.apply(pre.hi()[i]));
            let c = 0.5 * (l + h);
            let r = round_up((h - c).max(c - l)).max(0.0);
            star.center[i] = c;
            let s = star.push_symbol(-1.0, 1.0);
            star.basis[s][i] = r;
        }
        star
    }

    /// Propagates through an activation.
    pub(crate) fn step_activation(&self, act: Activation) -> StarSet {
        match act {
            Activation::Identity => self.clone(),
            Activation::Relu => self.step_relu(),
            // Leaky ReLU: y = α·x + (1-α)·relu(x); reuse the ReLU star by
            // linear combination is not expressible here, so collapse — the
            // experiments use plain ReLU networks for star comparisons.
            Activation::LeakyRelu { .. } | Activation::Sigmoid | Activation::Tanh => {
                self.step_monotone_collapse(act)
            }
        }
    }

    /// Propagates through max pooling by interval collapse.
    pub(crate) fn step_maxpool(&self, p: &MaxPool2d) -> StarSet {
        let pre = self.bounds().step(&Layer::MaxPool2d(p.clone()));
        let d = pre.dim();
        let mut star = StarSet {
            center: vec![0.0; d],
            basis: Vec::new(),
            alpha_lo: Vec::new(),
            alpha_hi: Vec::new(),
            constraints: Vec::new(),
        };
        for i in 0..d {
            let (l, h) = (pre.lo()[i], pre.hi()[i]);
            let c = 0.5 * (l + h);
            let r = round_up((h - c).max(c - l)).max(0.0);
            star.center[i] = c;
            let s = star.push_symbol(-1.0, 1.0);
            star.basis[s][i] = r;
        }
        star
    }

    /// Propagates through one network layer.
    ///
    /// # Panics
    ///
    /// Panics if the star dimension does not match the layer input.
    pub fn step(&self, layer: &Layer) -> StarSet {
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
    fn from_box_round_trips_bounds() {
        let b = BoxBounds::new(vec![-1.0, 0.5], vec![2.0, 0.5]);
        let s = StarSet::from_box(&b);
        let back = s.bounds();
        assert!(back.encloses(&b));
        assert!(back.mean_width() <= b.mean_width() + 1e-5);
    }

    #[test]
    fn affine_step_is_exact_on_linear_chain() {
        let rot = Dense::new(
            Matrix::from_rows(&[&[1.0, 1.0], &[1.0, -1.0]]),
            vec![0.0, 0.0],
        )
        .unwrap();
        let sum = Dense::new(Matrix::from_rows(&[&[1.0, 1.0]]), vec![0.0]).unwrap();
        let input = BoxBounds::new(vec![-1.0, -1.0], vec![1.0, 1.0]);
        let s = StarSet::from_box(&input)
            .step(&Layer::Dense(rot))
            .step(&Layer::Dense(sum));
        let b = s.bounds();
        // (x0+x1) + (x0-x1) = 2 x0 ∈ [-2, 2]: the star keeps the correlation.
        assert!(b.hi()[0] <= 2.0 + 1e-5 && b.lo()[0] >= -2.0 - 1e-5);
    }

    #[test]
    fn relu_star_contains_concrete_samples() {
        let mut rng = Prng::seed(40);
        let net = Network::seeded(
            19,
            2,
            &[
                LayerSpec::dense(5, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let center = [0.1, -0.3];
        let input = BoxBounds::from_center_radius(&center, 0.25);
        let mut s = StarSet::from_box(&input);
        for layer in net.layers() {
            s = s.step(layer);
        }
        let out = s.bounds();
        for _ in 0..300 {
            let x: Vec<f64> = (0..2)
                .map(|i| rng.uniform(center[i] - 0.25, center[i] + 0.25))
                .collect();
            assert!(out.contains(&net.forward(&x)), "sample escaped star bounds");
        }
    }

    #[test]
    fn star_no_looser_than_box_through_relu() {
        let net = Network::seeded(
            33,
            3,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(4, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let input = BoxBounds::from_center_radius(&[0.2, -0.1, 0.4], 0.3);
        let mut s = StarSet::from_box(&input);
        let mut b = input.clone();
        for layer in net.layers() {
            s = s.step(layer);
            b = b.step(layer);
        }
        let sb = s.bounds();
        assert!(
            sb.mean_width() <= b.mean_width() + 1e-6,
            "star {} vs box {}",
            sb.mean_width(),
            b.mean_width()
        );
    }

    #[test]
    fn stable_neurons_add_no_symbols_or_constraints() {
        // All-positive pre-activations: ReLU is exact, nothing is added.
        let d = Dense::new(Matrix::from_rows(&[&[1.0], &[2.0]]), vec![10.0, 10.0]).unwrap();
        let input = BoxBounds::new(vec![-0.5], vec![0.5]);
        let s = StarSet::from_box(&input)
            .step(&Layer::Dense(d))
            .step(&Layer::Activation(Activation::Relu));
        assert_eq!(s.num_symbols(), 1);
        assert_eq!(s.num_constraints(), 0);
    }

    #[test]
    fn unstable_neurons_add_one_symbol_and_two_constraints() {
        let d = Dense::new(Matrix::from_rows(&[&[1.0]]), vec![0.0]).unwrap();
        let input = BoxBounds::new(vec![-1.0], vec![1.0]);
        let s = StarSet::from_box(&input)
            .step(&Layer::Dense(d))
            .step(&Layer::Activation(Activation::Relu));
        assert_eq!(s.num_symbols(), 2);
        assert_eq!(s.num_constraints(), 2);
        let b = s.bounds();
        assert!(b.lo()[0] <= 0.0 + 1e-6 && b.lo()[0] >= -1e-4);
        assert!(b.hi()[0] >= 1.0 - 1e-6);
    }

    #[test]
    fn sigmoid_collapse_is_sound() {
        let mut rng = Prng::seed(44);
        let net = Network::seeded(
            21,
            2,
            &[
                LayerSpec::dense(3, Activation::Sigmoid),
                LayerSpec::dense(1, Activation::Identity),
            ],
        );
        let input = BoxBounds::from_center_radius(&[0.0, 0.0], 0.5);
        let mut s = StarSet::from_box(&input);
        for layer in net.layers() {
            s = s.step(layer);
        }
        let out = s.bounds();
        for _ in 0..200 {
            let x = vec![rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)];
            assert!(out.contains(&net.forward(&x)));
        }
    }
}
