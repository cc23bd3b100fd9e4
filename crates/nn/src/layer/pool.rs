//! 2-D max pooling over flattened `(channels, height, width)` vectors.

use crate::error::NnError;
use serde::{de, Deserialize, Deserializer, Serialize};

/// A 2-D max-pooling layer.
///
/// Pools non-overlapping (or strided) square windows per channel. Input and
/// output are flat vectors in `(channel, row, column)` order, like
/// [`Conv2d`](crate::Conv2d).
///
/// Max pooling is monotone in every input coordinate; the
/// abstract-interpretation crate exploits this to propagate interval bounds
/// exactly (`max` of lower bounds, `max` of upper bounds per window).
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct MaxPool2d {
    channels: usize,
    in_h: usize,
    in_w: usize,
    pool: usize,
    stride: usize,
}

impl MaxPool2d {
    /// Creates a pooling layer with square windows of side `pool` moved by
    /// `stride` (use `stride == pool` for the common non-overlapping case).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if any dimension, the window, or
    /// the stride is zero, or the window does not fit the input.
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        pool: usize,
        stride: usize,
    ) -> Result<Self, NnError> {
        if channels == 0 || in_h == 0 || in_w == 0 {
            return Err(NnError::InvalidConfig(
                "maxpool2d: zero-sized dimension".into(),
            ));
        }
        if pool == 0 || stride == 0 {
            return Err(NnError::InvalidConfig(
                "maxpool2d: pool and stride must be positive".into(),
            ));
        }
        if pool > in_h || pool > in_w {
            return Err(NnError::InvalidConfig(format!(
                "maxpool2d: window {pool} larger than input {in_h}x{in_w}"
            )));
        }
        Ok(Self {
            channels,
            in_h,
            in_w,
            pool,
            stride,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.channels
    }

    /// Window side length.
    pub fn pool(&self) -> usize {
        self.pool
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        (self.in_h - self.pool) / self.stride + 1
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        (self.in_w - self.pool) / self.stride + 1
    }

    /// Flattened input dimension.
    pub fn in_dim(&self) -> usize {
        self.channels * self.in_h * self.in_w
    }

    /// Flattened output dimension.
    pub fn out_dim(&self) -> usize {
        self.channels * self.out_h() * self.out_w()
    }

    /// Iterates over the flat input indices of the window feeding output
    /// position `(c, oy, ox)`.
    pub fn window_indices(
        &self,
        c: usize,
        oy: usize,
        ox: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        let base_y = oy * self.stride;
        let base_x = ox * self.stride;
        let (in_h, in_w, pool) = (self.in_h, self.in_w, self.pool);
        (0..pool * pool).map(move |i| {
            let (ky, kx) = (i / pool, i % pool);
            (c * in_h + base_y + ky) * in_w + (base_x + kx)
        })
    }

    /// Applies max pooling.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim(), "maxpool forward: input dimension");
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut out = vec![0.0; self.out_dim()];
        for c in 0..self.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let m = self
                        .window_indices(c, oy, ox)
                        .map(|i| x[i])
                        .fold(f64::NEG_INFINITY, f64::max);
                    out[(c * oh + oy) * ow + ox] = m;
                }
            }
        }
        out
    }

    /// Backpropagation: routes each upstream gradient to the (first)
    /// position that attained the window maximum.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward(&self, x: &[f64], dy: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim(), "maxpool backward: input dimension");
        assert_eq!(
            dy.len(),
            self.out_dim(),
            "maxpool backward: gradient dimension"
        );
        let (oh, ow) = (self.out_h(), self.out_w());
        let mut dx = vec![0.0; self.in_dim()];
        for c in 0..self.channels {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut best_idx = usize::MAX;
                    let mut best = f64::NEG_INFINITY;
                    for i in self.window_indices(c, oy, ox) {
                        if x[i] > best {
                            best = x[i];
                            best_idx = i;
                        }
                    }
                    dx[best_idx] += dy[(c * oh + oy) * ow + ox];
                }
            }
        }
        dx
    }
}

/// A pooling window as it is serialized, checked before it becomes a
/// [`MaxPool2d`] (or the window of an [`AvgPool2d`]).
#[derive(Deserialize)]
struct PoolFields {
    channels: usize,
    in_h: usize,
    in_w: usize,
    pool: usize,
    stride: usize,
}

/// Loads through [`MaxPool2d::new`], so a zero size or stride, or a window
/// larger than its input, is refused; [`AvgPool2d`] loads its window here.
impl<'de> Deserialize<'de> for MaxPool2d {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let f = PoolFields::deserialize(deserializer)?;
        MaxPool2d::new(f.channels, f.in_h, f.in_w, f.pool, f.stride).map_err(de::Error::custom)
    }
}

/// A 2-D average-pooling layer.
///
/// Same geometry conventions as [`MaxPool2d`], but the window *mean* is an
/// affine map — the abstract-interpretation crate treats it exactly in
/// every domain.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AvgPool2d {
    inner: MaxPool2d,
}

impl AvgPool2d {
    /// Creates an average-pooling layer (see [`MaxPool2d::new`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`MaxPool2d::new`].
    pub fn new(
        channels: usize,
        in_h: usize,
        in_w: usize,
        pool: usize,
        stride: usize,
    ) -> Result<Self, NnError> {
        Ok(Self {
            inner: MaxPool2d::new(channels, in_h, in_w, pool, stride)?,
        })
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.inner.channels()
    }

    /// Window side length.
    pub fn pool(&self) -> usize {
        self.inner.pool()
    }

    /// Stride.
    pub fn stride(&self) -> usize {
        self.inner.stride()
    }

    /// Output spatial height.
    pub fn out_h(&self) -> usize {
        self.inner.out_h()
    }

    /// Output spatial width.
    pub fn out_w(&self) -> usize {
        self.inner.out_w()
    }

    /// Flattened input dimension.
    pub fn in_dim(&self) -> usize {
        self.inner.in_dim()
    }

    /// Flattened output dimension.
    pub fn out_dim(&self) -> usize {
        self.inner.out_dim()
    }

    /// Iterates over the flat input indices feeding output `(c, oy, ox)`.
    pub fn window_indices(
        &self,
        c: usize,
        oy: usize,
        ox: usize,
    ) -> impl Iterator<Item = usize> + '_ {
        self.inner.window_indices(c, oy, ox)
    }

    /// Applies average pooling.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.in_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.in_dim(), "avgpool forward: input dimension");
        let (oh, ow) = (self.out_h(), self.out_w());
        let norm = 1.0 / (self.pool() * self.pool()) as f64;
        let mut out = vec![0.0; self.out_dim()];
        for c in 0..self.channels() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let sum: f64 = self.window_indices(c, oy, ox).map(|i| x[i]).sum();
                    out[(c * oh + oy) * ow + ox] = sum * norm;
                }
            }
        }
        out
    }

    /// Backpropagation: spreads each upstream gradient uniformly over its
    /// window.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatches.
    pub fn backward(&self, dy: &[f64]) -> Vec<f64> {
        assert_eq!(
            dy.len(),
            self.out_dim(),
            "avgpool backward: gradient dimension"
        );
        let (oh, ow) = (self.out_h(), self.out_w());
        let norm = 1.0 / (self.pool() * self.pool()) as f64;
        let mut dx = vec![0.0; self.in_dim()];
        for c in 0..self.channels() {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = dy[(c * oh + oy) * ow + ox] * norm;
                    for i in self.window_indices(c, oy, ox) {
                        dx[i] += g;
                    }
                }
            }
        }
        dx
    }
}

#[cfg(test)]
mod avg_tests {
    use super::*;

    #[test]
    fn forward_takes_window_means() {
        let p = AvgPool2d::new(1, 2, 2, 2, 2).unwrap();
        assert_eq!(p.forward(&[1.0, 2.0, 3.0, 6.0]), vec![3.0]);
    }

    #[test]
    fn backward_matches_finite_differences() {
        let p = AvgPool2d::new(1, 4, 4, 2, 2).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).cos()).collect();
        let dy = [1.0, -2.0, 0.5, 0.25];
        let dx = p.backward(&dy);
        let loss = |x: &[f64]| -> f64 { p.forward(x).iter().zip(&dy).map(|(a, b)| a * b).sum() };
        let h = 1e-6;
        for i in 0..16 {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!((num - dx[i]).abs() < 1e-6, "dx[{i}]");
        }
    }

    #[test]
    fn average_bounded_by_min_max_of_window() {
        let p = AvgPool2d::new(1, 2, 2, 2, 2).unwrap();
        let avg = p.forward(&[0.0, 1.0, 2.0, 3.0])[0];
        assert!((0.0..=3.0).contains(&avg));
        assert_eq!(avg, 1.5);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_config() {
        assert!(MaxPool2d::new(0, 4, 4, 2, 2).is_err());
        assert!(MaxPool2d::new(1, 4, 4, 0, 2).is_err());
        assert!(MaxPool2d::new(1, 4, 4, 2, 0).is_err());
        assert!(MaxPool2d::new(1, 2, 2, 3, 1).is_err());
        assert!(MaxPool2d::new(1, 4, 4, 2, 2).is_ok());
    }

    #[test]
    fn forward_takes_window_maxima() {
        let p = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        #[rustfmt::skip]
        let x = [ 1.0,  2.0,  5.0,  6.0,
                  3.0,  4.0,  7.0,  8.0,
                 -1.0, -2.0,  0.0,  0.5,
                 -3.0, -4.0, -0.5,  0.25];
        assert_eq!(p.forward(&x), vec![4.0, 8.0, -1.0, 0.5]);
    }

    #[test]
    fn overlapping_stride_works() {
        let p = MaxPool2d::new(1, 3, 3, 2, 1).unwrap();
        assert_eq!((p.out_h(), p.out_w()), (2, 2));
        #[rustfmt::skip]
        let x = [1.0, 2.0, 3.0,
                 4.0, 5.0, 6.0,
                 7.0, 8.0, 9.0];
        assert_eq!(p.forward(&x), vec![5.0, 6.0, 8.0, 9.0]);
    }

    #[test]
    fn multi_channel_pools_independently() {
        let p = MaxPool2d::new(2, 2, 2, 2, 2).unwrap();
        let x = [1.0, 2.0, 3.0, 4.0, 40.0, 30.0, 20.0, 10.0];
        assert_eq!(p.forward(&x), vec![4.0, 40.0]);
    }

    #[test]
    fn backward_routes_gradient_to_argmax() {
        let p = MaxPool2d::new(1, 2, 2, 2, 2).unwrap();
        let x = [1.0, 9.0, 3.0, 4.0];
        let dx = p.backward(&x, &[2.0]);
        assert_eq!(dx, vec![0.0, 2.0, 0.0, 0.0]);
    }

    #[test]
    fn backward_matches_finite_differences_off_ties() {
        let p = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.731).sin()).collect();
        let dy = [1.0, -0.5, 0.25, 2.0];
        let dx = p.backward(&x, &dy);
        let loss = |x: &[f64]| -> f64 { p.forward(x).iter().zip(&dy).map(|(a, b)| a * b).sum() };
        let h = 1e-6;
        for i in 0..16 {
            let mut xp = x.clone();
            xp[i] += h;
            let mut xm = x.clone();
            xm[i] -= h;
            let num = (loss(&xp) - loss(&xm)) / (2.0 * h);
            assert!((num - dx[i]).abs() < 1e-6, "dx[{i}]: {num} vs {}", dx[i]);
        }
    }

    #[test]
    fn window_indices_cover_expected_cells() {
        let p = MaxPool2d::new(1, 4, 4, 2, 2).unwrap();
        let idx: Vec<usize> = p.window_indices(0, 1, 1).collect();
        assert_eq!(idx, vec![10, 11, 14, 15]);
    }
}
