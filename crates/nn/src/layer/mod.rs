//! Network layers: one [`Layer`] is one transformation `g_i` of the paper.

mod conv;
mod dense;
mod norm;
mod pool;

pub use conv::Conv2d;
pub use dense::Dense;
pub use norm::BatchNorm1d;
pub use pool::{AvgPool2d, MaxPool2d};

use crate::activation::Activation;
use napmon_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Parameter gradients produced by one layer during backpropagation.
///
/// Only layers with trainable parameters (dense, convolution) produce one.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGrad {
    /// Gradient of the loss w.r.t. the layer's weight matrix.
    pub dw: Matrix,
    /// Gradient of the loss w.r.t. the layer's bias vector.
    pub db: Vec<f64>,
}

/// One layer transformation `g_i : R^{d_{i-1}} -> R^{d_i}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Layer {
    /// Fully-connected affine map `y = W x + b`.
    Dense(Dense),
    /// 2-D convolution over a flattened `(channels, height, width)` input.
    Conv2d(Conv2d),
    /// 2-D max pooling over a flattened `(channels, height, width)` input.
    MaxPool2d(MaxPool2d),
    /// 2-D average pooling (affine; exact in every abstract domain).
    AvgPool2d(AvgPool2d),
    /// Frozen batch normalization (affine).
    BatchNorm(BatchNorm1d),
    /// Elementwise activation.
    Activation(Activation),
}

impl Layer {
    /// Output dimension given the input dimension.
    ///
    /// # Panics
    ///
    /// Panics if `in_dim` is not compatible with the layer (callers are
    /// expected to have validated the network shape at construction).
    pub fn out_dim(&self, in_dim: usize) -> usize {
        self.try_out_dim(in_dim).expect("layer input dimension")
    }

    /// Applies the layer to an input vector.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` does not match the layer's input dimension.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        match self {
            Layer::Dense(d) => d.forward(x),
            Layer::Conv2d(c) => c.forward(x),
            Layer::MaxPool2d(p) => p.forward(x),
            Layer::AvgPool2d(p) => p.forward(x),
            Layer::BatchNorm(bn) => bn.forward(x),
            Layer::Activation(a) => a.apply_vec(x),
        }
    }

    /// Applies the layer to `n` inputs stored row-major in `xs`, writing
    /// the `n` outputs row-major into a reused buffer.
    ///
    /// Each output row is bit-identical to [`Layer::forward`] on its input
    /// row alone. Dense layers run the dense batch kernel;
    /// batch-norm and activation layers are elementwise over the whole
    /// buffer; none of the three allocates once `out` has grown.
    /// Convolution and pooling run [`Layer::forward`] row by row and copy
    /// — they sit below the monitored boundary of every experiment in this
    /// workspace, so their cost profile is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not `n` times the layer's input dimension.
    pub fn forward_batch_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        match self {
            Layer::Dense(d) => d.forward_batch_into(xs, n, out),
            Layer::Activation(a) => a.apply_vec_into(xs, out),
            Layer::BatchNorm(bn) => {
                assert_eq!(
                    xs.len(),
                    n * bn.dim(),
                    "batch norm forward: dimension mismatch"
                );
                out.clear();
                // `max(1)`: a zero-width norm has an empty batch to chunk.
                for x in xs.chunks_exact(bn.dim().max(1)) {
                    out.extend(
                        x.iter()
                            .zip(bn.scale().iter().zip(bn.shift()))
                            .map(|(v, (s, b))| v * s + b),
                    );
                }
            }
            Layer::Conv2d(_) | Layer::MaxPool2d(_) | Layer::AvgPool2d(_) => {
                let d = xs.len() / n.max(1);
                assert_eq!(xs.len(), n * d, "layer forward: ragged batch");
                out.clear();
                for i in 0..n {
                    out.extend_from_slice(&self.forward(&xs[i * d..(i + 1) * d]));
                }
            }
        }
    }

    /// Backpropagates through the layer.
    ///
    /// `x` is the input that produced output `y`, and `dy` is the loss
    /// gradient w.r.t. `y`. Returns the gradient w.r.t. `x` and, for
    /// parameterized layers, the parameter gradients.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward(&self, x: &[f64], y: &[f64], dy: &[f64]) -> (Vec<f64>, Option<LayerGrad>) {
        match self {
            Layer::Dense(d) => {
                let (dx, g) = d.backward(x, dy);
                (dx, Some(g))
            }
            Layer::Conv2d(c) => {
                let (dx, g) = c.backward(x, dy);
                (dx, Some(g))
            }
            Layer::MaxPool2d(p) => (p.backward(x, dy), None),
            Layer::AvgPool2d(p) => (p.backward(dy), None),
            Layer::BatchNorm(bn) => (bn.backward(dy), None),
            Layer::Activation(a) => {
                assert_eq!(x.len(), dy.len(), "activation backward dimension");
                let dx = x
                    .iter()
                    .zip(y)
                    .zip(dy)
                    .map(|((&xi, &yi), &di)| di * a.grad(xi, yi))
                    .collect();
                (dx, None)
            }
        }
    }

    /// Whether the layer is an affine map (exact in every abstract domain).
    pub fn is_affine(&self) -> bool {
        matches!(
            self,
            Layer::Dense(_) | Layer::Conv2d(_) | Layer::AvgPool2d(_) | Layer::BatchNorm(_)
        ) || matches!(self, Layer::Activation(Activation::Identity))
    }

    /// The activation function, if this layer is an activation.
    pub fn as_activation(&self) -> Option<Activation> {
        match self {
            Layer::Activation(a) => Some(*a),
            _ => None,
        }
    }

    /// Changes a parameterized layer's weights and bias in place through
    /// `f` ([`Dense::update_params`], [`Conv2d::update_params`]). Returns
    /// `false`, without calling `f`, for a layer without parameters.
    pub fn update_params(&mut self, f: impl FnOnce(&mut [f64], &mut [f64])) -> bool {
        match self {
            Layer::Dense(d) => d.update_params(f),
            Layer::Conv2d(c) => c.update_params(f),
            _ => return false,
        }
        true
    }

    /// Number of trainable parameters in this layer.
    pub fn num_params(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weights().rows() * d.weights().cols() + d.bias().len(),
            Layer::Conv2d(c) => c.weights().rows() * c.weights().cols() + c.bias().len(),
            _ => 0,
        }
    }
}

impl From<Activation> for Layer {
    fn from(a: Activation) -> Self {
        Layer::Activation(a)
    }
}

impl From<Dense> for Layer {
    fn from(d: Dense) -> Self {
        Layer::Dense(d)
    }
}

impl From<Conv2d> for Layer {
    fn from(c: Conv2d) -> Self {
        Layer::Conv2d(c)
    }
}

impl From<MaxPool2d> for Layer {
    fn from(p: MaxPool2d) -> Self {
        Layer::MaxPool2d(p)
    }
}

impl From<AvgPool2d> for Layer {
    fn from(p: AvgPool2d) -> Self {
        Layer::AvgPool2d(p)
    }
}

impl From<BatchNorm1d> for Layer {
    fn from(bn: BatchNorm1d) -> Self {
        Layer::BatchNorm(bn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_tensor::Matrix;

    fn tiny_dense() -> Layer {
        Layer::Dense(
            Dense::new(
                Matrix::from_rows(&[&[1.0, -2.0], &[0.5, 0.5]]),
                vec![0.1, -0.1],
            )
            .unwrap(),
        )
    }

    #[test]
    fn dense_layer_dispatch() {
        let l = tiny_dense();
        assert_eq!(l.out_dim(2), 2);
        assert!(l.is_affine());
        assert_eq!(l.forward(&[1.0, 1.0]), vec![-0.9, 0.9]);
        assert_eq!(l.num_params(), 6);
    }

    #[test]
    fn activation_layer_dispatch() {
        let l = Layer::Activation(Activation::Relu);
        assert_eq!(l.out_dim(7), 7);
        assert!(!l.is_affine());
        assert_eq!(l.forward(&[-1.0, 2.0]), vec![0.0, 2.0]);
        assert_eq!(l.num_params(), 0);
        assert_eq!(l.as_activation(), Some(Activation::Relu));
    }

    #[test]
    fn identity_activation_counts_as_affine() {
        let l = Layer::Activation(Activation::Identity);
        assert!(l.is_affine());
        assert_eq!(l.forward(&[3.0, -1.0]), vec![3.0, -1.0]);
    }

    #[test]
    fn activation_backward_scales_by_grad() {
        let l = Layer::Activation(Activation::Relu);
        let x = [-1.0, 2.0];
        let y = l.forward(&x);
        let (dx, g) = l.backward(&x, &y, &[1.0, 1.0]);
        assert_eq!(dx, vec![0.0, 1.0]);
        assert!(g.is_none());
    }

    #[test]
    fn from_impls_build_expected_variants() {
        assert!(matches!(
            Layer::from(Activation::Tanh),
            Layer::Activation(Activation::Tanh)
        ));
        let d = Dense::new(Matrix::identity(2), vec![0.0, 0.0]).unwrap();
        assert!(matches!(Layer::from(d), Layer::Dense(_)));
    }
}
