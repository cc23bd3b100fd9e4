//! Uniform sparse view of affine layers.
//!
//! Dense and convolutional layers are both affine maps `y = W x + b`; the
//! abstract domains only need the coefficients, not the layer type. An
//! [`AffineView`] materializes the (sparse) coefficient list once per layer
//! so every domain shares one propagation code path.

use napmon_nn::{AvgPool2d, BatchNorm1d, Conv2d, Dense, Layer};

/// A sparse affine map `y = W x + b` extracted from a layer.
#[derive(Debug, Clone, PartialEq)]
pub struct AffineView {
    in_dim: usize,
    out_dim: usize,
    /// Per output row: list of `(input index, weight)` pairs.
    rows: Vec<Vec<(usize, f64)>>,
    bias: Vec<f64>,
}

impl AffineView {
    /// Extracts the affine structure of a layer, or `None` if the layer is
    /// not affine (activations, pooling).
    pub fn from_layer(layer: &Layer) -> Option<Self> {
        match layer {
            Layer::Dense(d) => Some(Self::from_dense(d)),
            Layer::Conv2d(c) => Some(Self::from_conv(c)),
            Layer::AvgPool2d(p) => Some(Self::from_avgpool(p)),
            Layer::BatchNorm(bn) => Some(Self::from_batchnorm(bn)),
            _ => None,
        }
    }

    /// Extracts a dense layer's coefficients.
    pub fn from_dense(d: &Dense) -> Self {
        let rows = (0..d.out_dim())
            .map(|r| {
                d.weights()
                    .row(r)
                    .iter()
                    .enumerate()
                    .filter(|(_, w)| **w != 0.0)
                    .map(|(c, w)| (c, *w))
                    .collect()
            })
            .collect();
        Self {
            in_dim: d.in_dim(),
            out_dim: d.out_dim(),
            rows,
            bias: d.bias().to_vec(),
        }
    }

    /// Enumerates a convolution's receptive fields into sparse rows.
    pub fn from_conv(c: &Conv2d) -> Self {
        let (oh, ow) = (c.out_h(), c.out_w());
        let k = c.kernel();
        let mut rows = Vec::with_capacity(c.out_dim());
        let mut bias = Vec::with_capacity(c.out_dim());
        for oc in 0..c.out_channels() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut row = Vec::new();
                    for ic in 0..c.in_channels() {
                        for ky in 0..k {
                            for kx in 0..k {
                                let iy = (oy * c.stride() + ky) as isize - c.padding() as isize;
                                let ix = (ox * c.stride() + kx) as isize - c.padding() as isize;
                                if iy < 0
                                    || ix < 0
                                    || iy as usize >= c.in_h()
                                    || ix as usize >= c.in_w()
                                {
                                    continue;
                                }
                                let idx = (ic * c.in_h() + iy as usize) * c.in_w() + ix as usize;
                                let w = c.weights()[(oc, (ic * k + ky) * k + kx)];
                                if w != 0.0 {
                                    row.push((idx, w));
                                }
                            }
                        }
                    }
                    rows.push(row);
                    bias.push(c.bias()[oc]);
                }
            }
        }
        Self {
            in_dim: c.in_dim(),
            out_dim: c.out_dim(),
            rows,
            bias,
        }
    }

    /// Average pooling as a sparse affine map (weight `1/p²` per window
    /// cell, no bias).
    pub fn from_avgpool(p: &AvgPool2d) -> Self {
        let w = 1.0 / (p.pool() * p.pool()) as f64;
        let (oh, ow) = (p.out_h(), p.out_w());
        let mut rows = Vec::with_capacity(p.out_dim());
        for c in 0..p.channels() {
            for oy in 0..oh {
                for ox in 0..ow {
                    rows.push(p.window_indices(c, oy, ox).map(|i| (i, w)).collect());
                }
            }
        }
        Self {
            in_dim: p.in_dim(),
            out_dim: p.out_dim(),
            rows,
            bias: vec![0.0; p.out_dim()],
        }
    }

    /// Frozen batch norm as a diagonal affine map.
    pub fn from_batchnorm(bn: &BatchNorm1d) -> Self {
        let rows = bn
            .scale()
            .iter()
            .enumerate()
            .map(|(i, &s)| vec![(i, s)])
            .collect();
        Self {
            in_dim: bn.dim(),
            out_dim: bn.dim(),
            rows,
            bias: bn.shift().to_vec(),
        }
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.out_dim
    }

    /// Bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Sparse coefficients of output row `r`.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.out_dim()`.
    pub fn row(&self, r: usize) -> &[(usize, f64)] {
        &self.rows[r]
    }

    /// Applies the map in plain round-to-nearest arithmetic (`W x + b`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "affine apply: input dimension");
        self.rows
            .iter()
            .zip(&self.bias)
            .map(|(row, b)| b + row.iter().map(|&(i, w)| w * x[i]).sum::<f64>())
            .collect()
    }

    /// Applies only the linear part (`W x`).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn apply_linear(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim, "affine apply_linear: input dimension");
        self.rows
            .iter()
            .map(|row| row.iter().map(|&(i, w)| w * x[i]).sum::<f64>())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_tensor::{init::Init, Matrix, Prng};

    #[test]
    fn dense_view_matches_layer_forward() {
        let d = Dense::new(
            Matrix::from_rows(&[&[1.0, -2.0, 0.0], &[0.5, 0.0, 3.0]]),
            vec![0.1, -0.2],
        )
        .unwrap();
        let v = AffineView::from_dense(&d);
        assert_eq!(v.in_dim(), 3);
        assert_eq!(v.out_dim(), 2);
        let x = [1.0, 2.0, -1.0];
        assert_eq!(v.apply(&x), d.forward(&x));
        let linear = Dense::new(d.weights().clone(), vec![0.0; 2]).unwrap();
        assert_eq!(v.apply_linear(&x), linear.forward(&x));
        // Zero weights are dropped from the sparse rows.
        assert_eq!(v.row(0).len(), 2);
        assert_eq!(v.row(1).len(), 2);
    }

    #[test]
    fn conv_view_matches_layer_forward() {
        let mut rng = Prng::seed(17);
        let c = Conv2d::seeded(&mut rng, 2, 5, 5, 3, 3, 2, 1, Init::HeNormal).unwrap();
        let v = AffineView::from_conv(&c);
        assert_eq!(v.in_dim(), c.in_dim());
        assert_eq!(v.out_dim(), c.out_dim());
        let x = rng.uniform_vec(c.in_dim(), -1.0, 1.0);
        let (ours, theirs) = (v.apply(&x), c.forward(&x));
        for (a, b) in ours.iter().zip(&theirs) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn from_layer_returns_none_for_nonaffine() {
        use napmon_nn::Activation;
        assert!(AffineView::from_layer(&Layer::Activation(Activation::Relu)).is_none());
        let p = napmon_nn::MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        assert!(AffineView::from_layer(&Layer::MaxPool2d(p)).is_none());
    }

    #[test]
    fn padded_conv_rows_have_truncated_receptive_fields() {
        let c = Conv2d::zeros(1, 3, 3, 1, 3, 1, 1).unwrap();
        let v = AffineView::from_conv(&c);
        // All-zero kernel: rows are empty; but out_dim is 9 regardless.
        assert_eq!(v.out_dim(), 9);
        assert!(v.row(0).is_empty());
    }
}
