//! Fully-connected (dense) affine layer.

use crate::error::NnError;
use crate::layer::LayerGrad;
use napmon_tensor::{init::Init, Matrix, Prng};
use serde::{de, Deserialize, Deserializer, Serialize, Serializer};

/// A fully-connected affine layer `y = W x + b`.
///
/// Weights are stored as an `out_dim x in_dim` matrix so that one row holds
/// one output neuron's incoming weights: the form the layer is trained,
/// serialized and abstracted in. The forward pass reads a private
/// transposed copy, kept in step with `W` by every constructor and by
/// [`Dense::update_params`].
///
/// ```
/// use napmon_nn::Dense;
/// use napmon_tensor::Matrix;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let layer = Dense::new(Matrix::from_rows(&[&[2.0, 0.0]]), vec![1.0])?;
/// assert_eq!(layer.forward(&[3.0, 9.0]), vec![7.0]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dense {
    weights: Matrix,
    bias: Vec<f64>,
    /// `Wᵀ` (`in_dim x out_dim`): one input coordinate's weights for every
    /// output are contiguous, the layout the dense kernel reads.
    weights_t: Matrix,
}

impl Dense {
    /// Creates a dense layer from explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if `bias.len() != weights.rows()`.
    pub fn new(weights: Matrix, bias: Vec<f64>) -> Result<Self, NnError> {
        if bias.len() != weights.rows() {
            return Err(NnError::ShapeMismatch {
                context: "dense bias".into(),
                expected: weights.rows(),
                actual: bias.len(),
            });
        }
        Ok(Self {
            weights_t: weights.transpose(),
            weights,
            bias,
        })
    }

    /// Creates a randomly initialized `in_dim -> out_dim` layer.
    pub fn seeded(rng: &mut Prng, in_dim: usize, out_dim: usize, init: Init) -> Self {
        Self::new(init.matrix(rng, out_dim, in_dim), vec![0.0; out_dim])
            .expect("one bias per output")
    }

    /// Input dimension (columns of the weight matrix).
    pub fn in_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension (rows of the weight matrix).
    pub fn out_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Borrows the weight matrix.
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrows the bias vector.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Changes the parameters in place through `f`, which gets `W`'s
    /// row-major values and `b` (the optimizer's step), then re-derives the
    /// transposed copy the forward pass reads.
    pub fn update_params(&mut self, f: impl FnOnce(&mut [f64], &mut [f64])) {
        f(self.weights.as_mut_slice(), &mut self.bias);
        self.weights_t = self.weights.transpose();
    }

    /// Computes `W x + b`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut y = Vec::new();
        self.forward_batch_into(x, 1, &mut y);
        y
    }

    /// Computes `W x_i + b` for `n` inputs stored row-major in `xs`, into a
    /// reused output buffer (`n * out_dim` values, row-major; no
    /// allocation once the buffer has grown). Each output is bit-identical
    /// to the plain dot product `W.matvec(x_i)` plus the bias, for every
    /// batch size (see [`Matrix::matvec_transposed_batch_into`], run on the
    /// transposed copy).
    ///
    /// # Panics
    ///
    /// Panics if `xs.len() != n * self.in_dim()`.
    pub fn forward_batch_into(&self, xs: &[f64], n: usize, out: &mut Vec<f64>) {
        self.weights_t
            .matvec_transposed_batch_into(xs, n, Some(&self.bias), out);
    }

    /// Backpropagation: given input `x` and upstream gradient `dy`,
    /// returns `(dx, gradients)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward(&self, x: &[f64], dy: &[f64]) -> (Vec<f64>, LayerGrad) {
        assert_eq!(x.len(), self.in_dim(), "dense backward: input dimension");
        assert_eq!(
            dy.len(),
            self.out_dim(),
            "dense backward: gradient dimension"
        );
        // dx = W^T dy
        let dx = self.weights.matvec_transposed(dy);
        // dW = dy ⊗ x
        let dw = Matrix::from_fn(self.out_dim(), self.in_dim(), |r, c| dy[r] * x[c]);
        (
            dx,
            LayerGrad {
                dw,
                db: dy.to_vec(),
            },
        )
    }
}

/// A dense layer as it is serialized: `W` and `b`, without the derived
/// transposed copy.
#[derive(Serialize, Deserialize)]
struct DenseParams {
    weights: Matrix,
    bias: Vec<f64>,
}

impl Serialize for Dense {
    fn serialize<S: Serializer>(&self, serializer: S) -> Result<S::Ok, S::Error> {
        let (weights, bias) = (self.weights.clone(), self.bias.clone());
        DenseParams { weights, bias }.serialize(serializer)
    }
}

/// Loads through [`Dense::new`]: a bias that does not match the weights is
/// refused, and the transposed copy is built once.
impl<'de> Deserialize<'de> for Dense {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let DenseParams { weights, bias } = DenseParams::deserialize(deserializer)?;
        Dense::new(weights, bias).map_err(de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn layer() -> Dense {
        Dense::new(
            Matrix::from_rows(&[&[1.0, 2.0], &[-0.5, 0.25], &[0.0, 1.0]]),
            vec![0.5, 0.0, -1.0],
        )
        .unwrap()
    }

    #[test]
    fn new_rejects_bad_bias_length() {
        let err = Dense::new(Matrix::identity(2), vec![0.0]).unwrap_err();
        assert!(err.to_string().contains("dense bias"));
    }

    #[test]
    fn forward_applies_affine_map() {
        let l = layer();
        assert_eq!(l.forward(&[2.0, 1.0]), vec![4.5, -0.75, 0.0]);
    }

    #[test]
    fn forward_of_zero_input_is_bias() {
        let l = layer();
        assert_eq!(l.forward(&[0.0, 0.0]), vec![0.5, 0.0, -1.0]);
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let l = layer();
        let x = [0.7, -1.2];
        let dy = [1.0, -2.0, 0.5]; // pretend dL/dy
        let (dx, grad) = l.backward(&x, &dy);

        let h = 1e-6;
        // Loss L = dy . forward(x): check dL/dx numerically.
        let loss = |l: &Dense, x: &[f64]| -> f64 {
            l.forward(x).iter().zip(&dy).map(|(a, b)| a * b).sum()
        };
        for i in 0..x.len() {
            let mut xp = x.to_vec();
            xp[i] += h;
            let mut xm = x.to_vec();
            xm[i] -= h;
            let num = (loss(&l, &xp) - loss(&l, &xm)) / (2.0 * h);
            assert!((num - dx[i]).abs() < 1e-6, "dx[{i}]: {num} vs {}", dx[i]);
        }
        // Check dL/dW numerically.
        for r in 0..3 {
            for c in 0..2 {
                let mut lp = l.clone();
                lp.update_params(|w, _| w[r * 2 + c] += h);
                let mut lm = l.clone();
                lm.update_params(|w, _| w[r * 2 + c] -= h);
                let num = (loss(&lp, &x) - loss(&lm, &x)) / (2.0 * h);
                assert!((num - grad.dw[(r, c)]).abs() < 1e-6, "dw[{r},{c}]");
            }
        }
        assert_eq!(grad.db, dy.to_vec());
    }

    #[test]
    fn seeded_layer_has_requested_shape_and_zero_bias() {
        let mut rng = Prng::seed(4);
        let l = Dense::seeded(&mut rng, 5, 3, Init::HeNormal);
        assert_eq!(l.in_dim(), 5);
        assert_eq!(l.out_dim(), 3);
        assert!(l.bias().iter().all(|&b| b == 0.0));
    }
}
