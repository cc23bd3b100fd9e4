//! 2-D convolution over flattened `(channels, height, width)` vectors.

use crate::error::NnError;
use crate::layer::LayerGrad;
use napmon_tensor::{init::Init, Matrix, Prng};
use serde::{de, Deserialize, Deserializer, Serialize};

/// A 2-D convolution layer with zero padding.
///
/// Inputs and outputs are flat vectors in `(channel, row, column)` order —
/// the whole workspace passes activations as flat `Vec<f64>`, and the layer
/// carries its own shape metadata. The kernel weights are stored as an
/// `out_channels x (in_channels * kh * kw)` matrix, one row per output
/// channel, which keeps the affine structure explicit for the
/// abstract-interpretation crate.
///
/// ```
/// use napmon_nn::Conv2d;
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// // 1x4x4 input, one 2x2 kernel, stride 2, no padding -> 1x2x2 output.
/// let conv = Conv2d::zeros(1, 4, 4, 1, 2, 2, 0)?;
/// assert_eq!(conv.in_dim(), 16);
/// assert_eq!(conv.out_dim(), 4);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct Conv2d {
    in_channels: usize,
    in_h: usize,
    in_w: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    /// `out_channels x (in_channels * kernel * kernel)`.
    weights: Matrix,
    bias: Vec<f64>,
}

impl Conv2d {
    /// Creates a zero-initialized convolution; useful as a building block
    /// before loading trained parameters.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any dimension is zero, the
    /// stride is zero, or the kernel (after padding) does not fit.
    #[allow(clippy::too_many_arguments)]
    pub fn zeros(
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self, NnError> {
        if in_channels == 0 || in_h == 0 || in_w == 0 || out_channels == 0 {
            return Err(NnError::InvalidConfig(
                "conv2d: zero-sized dimension".into(),
            ));
        }
        if kernel == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(
                "conv2d: kernel and stride must be positive".into(),
            ));
        }
        if in_h + 2 * padding < kernel || in_w + 2 * padding < kernel {
            return Err(NnError::InvalidConfig(format!(
                "conv2d: kernel {kernel} larger than padded input {}x{}",
                in_h + 2 * padding,
                in_w + 2 * padding
            )));
        }
        let weights = Matrix::zeros(out_channels, in_channels * kernel * kernel);
        let bias = vec![0.0; out_channels];
        Ok(Self {
            in_channels,
            in_h,
            in_w,
            out_channels,
            kernel,
            stride,
            padding,
            weights,
            bias,
        })
    }

    /// Creates a randomly initialized convolution.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Conv2d::zeros`].
    #[allow(clippy::too_many_arguments)]
    pub fn seeded(
        rng: &mut Prng,
        in_channels: usize,
        in_h: usize,
        in_w: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        init: Init,
    ) -> Result<Self, NnError> {
        let mut conv = Self::zeros(
            in_channels,
            in_h,
            in_w,
            out_channels,
            kernel,
            stride,
            padding,
        )?;
        conv.weights = init.matrix(rng, out_channels, in_channels * kernel * kernel);
        Ok(conv)
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Input spatial height.
    pub fn in_h(&self) -> usize {
        self.in_h
    }

    /// Input spatial width.
    pub fn in_w(&self) -> usize {
        self.in_w
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// Kernel side length.
    pub fn kernel(&self) -> usize {
        self.kernel
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Zero padding on each side.
    pub fn padding(&self) -> usize {
        self.padding
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        (self.in_h + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        (self.in_w + 2 * self.padding - self.kernel) / self.stride + 1
    }

    /// Flattened input dimension `in_channels * in_h * in_w`.
    pub fn in_dim(&self) -> usize {
        self.in_channels * self.in_h * self.in_w
    }

    /// Flattened output dimension `out_channels * out_h * out_w`.
    pub fn out_dim(&self) -> usize {
        self.out_channels * self.out_h() * self.out_w()
    }

    /// Borrows the kernel weight matrix (`out_channels` rows).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Borrows the per-output-channel bias.
    pub fn bias(&self) -> &[f64] {
        &self.bias
    }

    /// Changes the parameters in place through `f`, which gets the kernel
    /// weights' row-major values and the bias (the optimizer's step).
    pub fn update_params(&mut self, f: impl FnOnce(&mut [f64], &mut [f64])) {
        f(self.weights.as_mut_slice(), &mut self.bias);
    }

    fn input_index(&self, c: usize, y: isize, x: isize) -> Option<usize> {
        if y < 0 || x < 0 || y as usize >= self.in_h || x as usize >= self.in_w {
            return None;
        }
        Some((c * self.in_h + y as usize) * self.in_w + x as usize)
    }

    /// Applies the convolution (with bias).
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim(), "conv forward: input dimension");
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = vec![0.0; self.out_dim()];
        for oc in 0..self.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = self.bias[oc];
                    for ic in 0..self.in_channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if let Some(idx) = self.input_index(ic, iy, ix) {
                                    let wi = (ic * self.kernel + ky) * self.kernel + kx;
                                    acc += self.weights[(oc, wi)] * x[idx];
                                }
                            }
                        }
                    }
                    out[(oc * oh + oy) * ow + ox] = acc;
                }
            }
        }
        out
    }

    /// Backpropagation: given input `x` and upstream gradient `dy`,
    /// returns `(dx, gradients)`.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward(&self, x: &[f64], dy: &[f64]) -> (Vec<f64>, LayerGrad) {
        assert_eq!(x.len(), self.in_dim(), "conv backward: input dimension");
        assert_eq!(
            dy.len(),
            self.out_dim(),
            "conv backward: gradient dimension"
        );
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut dx = vec![0.0; self.in_dim()];
        let mut dw = Matrix::zeros(
            self.out_channels,
            self.in_channels * self.kernel * self.kernel,
        );
        let mut db = vec![0.0; self.out_channels];
        for oc in 0..self.out_channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy[(oc * oh + oy) * ow + ox];
                    if g == 0.0 {
                        continue;
                    }
                    db[oc] += g;
                    for ic in 0..self.in_channels {
                        for ky in 0..self.kernel {
                            for kx in 0..self.kernel {
                                let iy = (oy * self.stride + ky) as isize - self.padding as isize;
                                let ix = (ox * self.stride + kx) as isize - self.padding as isize;
                                if let Some(idx) = self.input_index(ic, iy, ix) {
                                    let wi = (ic * self.kernel + ky) * self.kernel + kx;
                                    dw[(oc, wi)] += g * x[idx];
                                    dx[idx] += g * self.weights[(oc, wi)];
                                }
                            }
                        }
                    }
                }
            }
        }
        (dx, LayerGrad { dw, db })
    }
}

/// A convolution as it is serialized, checked before it becomes a
/// [`Conv2d`].
#[derive(Deserialize)]
struct Conv2dFields {
    in_channels: usize,
    in_h: usize,
    in_w: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weights: Matrix,
    bias: Vec<f64>,
}

/// Loads through [`Conv2d::zeros`]' checks, after refusing weights or a
/// bias of another shape than the geometry's (so the zero layer it builds
/// is no larger than what was read).
impl<'de> Deserialize<'de> for Conv2d {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let f = Conv2dFields::deserialize(deserializer)?;
        let (rows, cols, biases) = (f.weights.rows(), f.weights.cols(), f.bias.len());
        let fan_in = (f.in_channels.checked_mul(f.kernel)).and_then(|c| c.checked_mul(f.kernel));
        if (rows, Some(cols), biases) != (f.out_channels, fan_in, f.out_channels) {
            return Err(de::Error::custom(format!(
                "conv2d: {rows}x{cols} weights and {biases} biases for {} output channels",
                f.out_channels
            )));
        }
        let (c, h, w, k) = (f.in_channels, f.in_h, f.in_w, f.kernel);
        let conv = Conv2d::zeros(c, h, w, f.out_channels, k, f.stride, f.padding);
        let mut conv = conv.map_err(de::Error::custom)?;
        (conv.weights, conv.bias) = (f.weights, f.bias);
        Ok(conv)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 1-channel 3x3 input, single 2x2 averaging-ish kernel, stride 1.
    fn small_conv() -> Conv2d {
        let mut c = Conv2d::zeros(1, 3, 3, 1, 2, 1, 0).unwrap();
        c.update_params(|w, b| {
            w.fill(1.0);
            b[0] = 0.5;
        });
        c
    }

    #[test]
    fn zeros_validates_config() {
        assert!(Conv2d::zeros(0, 3, 3, 1, 2, 1, 0).is_err());
        assert!(Conv2d::zeros(1, 3, 3, 1, 0, 1, 0).is_err());
        assert!(Conv2d::zeros(1, 3, 3, 1, 2, 0, 0).is_err());
        assert!(Conv2d::zeros(1, 2, 2, 1, 5, 1, 0).is_err());
        assert!(Conv2d::zeros(1, 2, 2, 1, 5, 1, 2).is_ok()); // padding makes it fit
    }

    #[test]
    fn forward_sums_windows() {
        let c = small_conv();
        #[rustfmt::skip]
        let x = [1.0, 2.0, 3.0,
                 4.0, 5.0, 6.0,
                 7.0, 8.0, 9.0];
        // Windows: [1,2,4,5], [2,3,5,6], [4,5,7,8], [5,6,8,9]; +0.5 bias.
        assert_eq!(c.forward(&x), vec![12.5, 16.5, 24.5, 28.5]);
    }

    #[test]
    fn padding_and_stride_change_output_shape() {
        let c = Conv2d::zeros(1, 4, 4, 2, 3, 1, 1).unwrap();
        assert_eq!((c.out_h(), c.out_w()), (4, 4));
        assert_eq!(c.out_dim(), 2 * 16);
        let c = Conv2d::zeros(1, 4, 4, 1, 2, 2, 0).unwrap();
        assert_eq!((c.out_h(), c.out_w()), (2, 2));
    }

    #[test]
    fn backward_gradients_match_finite_differences() {
        let mut rng = Prng::seed(7);
        let c = Conv2d::seeded(&mut rng, 1, 4, 4, 2, 2, 2, 0, Init::HeNormal).unwrap();
        let x: Vec<f64> = rng.uniform_vec(c.in_dim(), -1.0, 1.0);
        let dy: Vec<f64> = rng.uniform_vec(c.out_dim(), -1.0, 1.0);
        let (dx, grad) = c.backward(&x, &dy);

        let loss = |c: &Conv2d, x: &[f64]| -> f64 {
            c.forward(x).iter().zip(&dy).map(|(a, b)| a * b).sum()
        };
        let h = 1e-6;
        for i in 0..x.len() {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let num = (loss(&c, &xp) - loss(&c, &xm)) / (2.0 * h);
            assert!((num - dx[i]).abs() < 1e-5, "dx[{i}]: {num} vs {}", dx[i]);
        }
        for r in 0..grad.dw.rows() {
            for col in 0..grad.dw.cols() {
                let mut cp = c.clone();
                let i = r * grad.dw.cols() + col;
                cp.update_params(|w, _| w[i] += h);
                let mut cm = c.clone();
                cm.update_params(|w, _| w[i] -= h);
                let num = (loss(&cp, &x) - loss(&cm, &x)) / (2.0 * h);
                assert!((num - grad.dw[(r, col)]).abs() < 1e-5, "dw[{r},{col}]");
            }
        }
        for (oc, db) in grad.db.iter().enumerate() {
            let mut cp = c.clone();
            cp.update_params(|_, b| b[oc] += h);
            let mut cm = c.clone();
            cm.update_params(|_, b| b[oc] -= h);
            let num = (loss(&cp, &x) - loss(&cm, &x)) / (2.0 * h);
            assert!((num - db).abs() < 1e-5, "db[{oc}]");
        }
    }
}
