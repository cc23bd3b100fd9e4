//! Sequential feed-forward networks with layer-sliced evaluation.

use crate::activation::Activation;
use crate::error::NnError;
use crate::layer::{AvgPool2d, Conv2d, Dense, Layer, MaxPool2d};
use napmon_tensor::{init::Init, vector, Prng};
use serde::{Deserialize, Serialize};

/// Specification of one dense layer for [`Network::seeded`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerSpec {
    out: usize,
    activation: Activation,
}

impl LayerSpec {
    /// A dense layer with `out` neurons followed by `activation`
    /// (no separate activation layer is added for [`Activation::Identity`]).
    pub fn dense(out: usize, activation: Activation) -> Self {
        Self { out, activation }
    }
}

/// A trained feed-forward network `G = g_n ∘ … ∘ g_1`.
///
/// Layer indices follow the paper: layer `i ∈ {1,…,n}` is `self.layers()[i-1]`,
/// and *boundary* `k ∈ {0,…,n}` denotes the output of the first `k` layers
/// (boundary `0` is the raw input). [`Network::forward_prefix`] computes
/// `G^k`, [`Network::forward_range`] computes `G^{l→k}`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Network {
    input_dim: usize,
    layers: Vec<Layer>,
}

impl Network {
    /// Builds a network from explicit layers, validating all dimensions.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if consecutive layers disagree, or
    /// [`NnError::InvalidConfig`] if `input_dim == 0` or `layers` is empty.
    pub fn from_layers(input_dim: usize, layers: Vec<Layer>) -> Result<Self, NnError> {
        if input_dim == 0 {
            return Err(NnError::InvalidConfig(
                "network input dimension must be positive".into(),
            ));
        }
        if layers.is_empty() {
            return Err(NnError::InvalidConfig(
                "network needs at least one layer".into(),
            ));
        }
        let mut dim = input_dim;
        for (i, layer) in layers.iter().enumerate() {
            dim = layer.try_out_dim(dim).map_err(|_| NnError::ShapeMismatch {
                context: format!("layer {} ({:?} input)", i + 1, dim),
                expected: expected_in_dim(layer).unwrap_or(dim),
                actual: dim,
            })?;
        }
        Ok(Self { input_dim, layers })
    }

    /// Builds a randomly initialized dense network.
    ///
    /// Weight initialization is He-normal before ReLU-family activations and
    /// Xavier-uniform otherwise. Each [`LayerSpec`] expands to a [`Dense`]
    /// layer plus (unless identity) an activation layer.
    ///
    /// # Panics
    ///
    /// Panics if `specs` is empty or `input_dim == 0`.
    pub fn seeded(seed: u64, input_dim: usize, specs: &[LayerSpec]) -> Self {
        assert!(input_dim > 0, "seeded: input dimension must be positive");
        assert!(!specs.is_empty(), "seeded: need at least one layer spec");
        let mut rng = Prng::seed(seed);
        let mut layers = Vec::new();
        let mut dim = input_dim;
        for spec in specs {
            let init = match spec.activation {
                Activation::Relu | Activation::LeakyRelu { .. } => Init::HeNormal,
                _ => Init::XavierUniform,
            };
            layers.push(Layer::Dense(Dense::seeded(&mut rng, dim, spec.out, init)));
            if spec.activation != Activation::Identity {
                layers.push(Layer::Activation(spec.activation));
            }
            dim = spec.out;
        }
        Self { input_dim, layers }
    }

    /// Input dimension `d_0`.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// Output dimension `d_n`.
    pub fn output_dim(&self) -> usize {
        *self.dims().last().expect("network has layers")
    }

    /// Number of layers `n`.
    pub fn num_layers(&self) -> usize {
        self.layers.len()
    }

    /// Borrows all layers (layer `i` of the paper is `layers()[i-1]`).
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutably borrows all layers (used by the trainer).
    pub fn layers_mut(&mut self) -> &mut [Layer] {
        &mut self.layers
    }

    /// Dimensions at every boundary: `dims()[k]` is `d_k`, with
    /// `dims()[0] == input_dim()`.
    pub fn dims(&self) -> Vec<usize> {
        let mut dims = Vec::with_capacity(self.layers.len() + 1);
        dims.push(self.input_dim);
        let mut dim = self.input_dim;
        for layer in &self.layers {
            dim = layer.out_dim(dim);
            dims.push(dim);
        }
        dims
    }

    /// Dimension at boundary `k` (`d_k`).
    ///
    /// # Panics
    ///
    /// Panics if `k > self.num_layers()`.
    pub fn dim_at(&self, k: usize) -> usize {
        let dims = self.dims();
        assert!(
            k < dims.len(),
            "boundary {k} out of range (network has {} layers)",
            self.layers.len()
        );
        dims[k]
    }

    /// Full forward pass `G(x)`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.input_dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        self.forward_range(x, 0, self.layers.len())
    }

    /// Prefix evaluation `G^k(x)`: applies layers `1..=k`. `k == 0` returns
    /// `x` unchanged (the paper's convention `G^0(v) = v`).
    ///
    /// # Panics
    ///
    /// Panics if `k > self.num_layers()` or `x` has the wrong length.
    pub fn forward_prefix(&self, x: &[f64], k: usize) -> Vec<f64> {
        self.forward_range(x, 0, k)
    }

    /// Prefix evaluation `G^k(x)` through reusable ping-pong buffers: the
    /// one-input case of [`Network::forward_prefix_batch_into`], with the
    /// same kernels. After the scratch buffers have grown to the widest
    /// layer, repeated calls perform **no heap allocation** for
    /// dense/batch-norm/activation networks.
    ///
    /// The result borrows from `scratch` and stays valid until the next
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.num_layers()` or `x` has the wrong length.
    pub fn forward_prefix_into<'s>(
        &self,
        x: &[f64],
        k: usize,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64] {
        self.forward_prefix_batch_into([x], k, scratch)
    }

    /// Prefix evaluation `G^k` over a batch: the input rows are packed
    /// into one row-major buffer in `scratch` and every layer runs once
    /// over the whole batch ([`Layer::forward_batch_into`]). Returns the
    /// `n` outputs row-major (`n * d_k` values), in input order; row `i`
    /// is bit-identical to [`Network::forward_prefix_into`] on input `i`
    /// alone. No heap allocation once the buffers have grown to the
    /// batch's widest layer (dense/batch-norm/activation networks).
    ///
    /// The result borrows from `scratch` and stays valid until the next
    /// call.
    ///
    /// # Panics
    ///
    /// Panics if `k > self.num_layers()` or an input has the wrong length.
    pub fn forward_prefix_batch_into<'s, I>(
        &self,
        inputs: I,
        k: usize,
        scratch: &'s mut ForwardScratch,
    ) -> &'s [f64]
    where
        I: IntoIterator,
        I::Item: AsRef<[f64]>,
    {
        assert!(k <= self.layers.len(), "invalid boundary {k}");
        scratch.cur.clear();
        let mut n = 0;
        for x in inputs {
            let x = x.as_ref();
            assert_eq!(
                x.len(),
                self.input_dim,
                "forward_prefix_into: input dimension"
            );
            scratch.cur.extend_from_slice(x);
            n += 1;
        }
        for layer in &self.layers[..k] {
            layer.forward_batch_into(&scratch.cur, n, &mut scratch.next);
            std::mem::swap(&mut scratch.cur, &mut scratch.next);
        }
        &scratch.cur
    }

    /// Range evaluation `G^{from→to}`: applies layers `from+1..=to` to a
    /// vector `v` living at boundary `from`.
    ///
    /// # Panics
    ///
    /// Panics if `from > to`, `to > self.num_layers()`, or `v` does not have
    /// dimension `d_from`.
    pub fn forward_range(&self, v: &[f64], from: usize, to: usize) -> Vec<f64> {
        assert!(
            from <= to && to <= self.layers.len(),
            "invalid layer range {from}..{to}"
        );
        assert_eq!(
            v.len(),
            self.dim_at(from),
            "forward_range: input dimension at boundary {from}"
        );
        let mut cur = v.to_vec();
        for layer in &self.layers[from..to] {
            cur = layer.forward(&cur);
        }
        cur
    }

    /// Outputs at every boundary `0..=n` (index 0 is the input itself).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn boundary_values(&self, x: &[f64]) -> Vec<Vec<f64>> {
        assert_eq!(x.len(), self.input_dim, "boundary_values: input dimension");
        let mut values = Vec::with_capacity(self.layers.len() + 1);
        values.push(x.to_vec());
        let mut cur = x.to_vec();
        for layer in &self.layers {
            cur = layer.forward(&cur);
            values.push(cur.clone());
        }
        values
    }

    /// Index of the maximal output (classification decision).
    ///
    /// # Panics
    ///
    /// Panics if `x` has the wrong length.
    pub fn predict_class(&self, x: &[f64]) -> usize {
        vector::argmax(&self.forward(x))
    }

    /// Total number of trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Layer::num_params).sum()
    }

    /// The boundary index of the last hidden layer before the final affine
    /// map — the monitoring location the paper and its predecessors use
    /// ("neurons within close-to-output layers represent high-level
    /// features").
    ///
    /// Concretely: the boundary just before the last [`Dense`] layer.
    pub fn penultimate_boundary(&self) -> usize {
        for (i, layer) in self.layers.iter().enumerate().rev() {
            if matches!(layer, Layer::Dense(_)) {
                return i;
            }
        }
        self.layers.len()
    }
}

/// Reusable ping-pong buffers for [`Network::forward_prefix_batch_into`]
/// and [`Network::forward_prefix_into`]: each holds one boundary's values
/// for the whole batch, row-major.
///
/// One scratch per querying thread; the monitors' batched APIs allocate one
/// per worker and reuse it across the whole batch.
#[derive(Debug, Clone, Default)]
pub struct ForwardScratch {
    cur: Vec<f64>,
    next: Vec<f64>,
}

impl ForwardScratch {
    /// An empty scratch (buffers grow on first use).
    pub fn new() -> Self {
        Self::default()
    }
}

fn expected_in_dim(layer: &Layer) -> Option<usize> {
    match layer {
        Layer::Dense(d) => Some(d.in_dim()),
        Layer::Conv2d(c) => Some(c.in_dim()),
        Layer::MaxPool2d(p) => Some(p.in_dim()),
        Layer::AvgPool2d(p) => Some(p.in_dim()),
        Layer::BatchNorm(bn) => Some(bn.dim()),
        Layer::Activation(_) => None,
    }
}

impl Layer {
    /// Output dimension for input dimension `in_dim`, or an error if the
    /// layer cannot accept that input.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on incompatible dimensions.
    pub fn try_out_dim(&self, in_dim: usize) -> Result<usize, NnError> {
        let ok = match self {
            Layer::Dense(d) => in_dim == d.in_dim(),
            Layer::Conv2d(c) => in_dim == c.in_dim(),
            Layer::MaxPool2d(p) => in_dim == p.in_dim(),
            Layer::AvgPool2d(p) => in_dim == p.in_dim(),
            Layer::BatchNorm(bn) => in_dim == bn.dim(),
            Layer::Activation(_) => true,
        };
        if !ok {
            return Err(NnError::ShapeMismatch {
                context: "layer input".into(),
                expected: expected_in_dim(self).unwrap_or(in_dim),
                actual: in_dim,
            });
        }
        Ok(match self {
            Layer::Dense(d) => d.out_dim(),
            Layer::Conv2d(c) => c.out_dim(),
            Layer::MaxPool2d(p) => p.out_dim(),
            Layer::AvgPool2d(p) => p.out_dim(),
            Layer::BatchNorm(bn) => bn.dim(),
            Layer::Activation(_) => in_dim,
        })
    }
}

/// Builder for networks mixing convolutional and dense stages.
///
/// Tracks the running activation shape so convolution/pooling layers get the
/// right spatial metadata:
///
/// ```
/// use napmon_nn::{network::NetworkBuilder, Activation};
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = NetworkBuilder::image(7, 1, 8, 8)
///     .conv(4, 3, 1, 1, Activation::Relu)?
///     .maxpool(2, 2)?
///     .dense(16, Activation::Relu)
///     .dense(2, Activation::Identity)
///     .build()?;
/// assert_eq!(net.input_dim(), 64);
/// assert_eq!(net.output_dim(), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct NetworkBuilder {
    rng: Prng,
    input_dim: usize,
    shape: BuilderShape,
    layers: Vec<Layer>,
    error: Option<String>,
}

#[derive(Debug, Clone, Copy)]
enum BuilderShape {
    Flat(usize),
    Image { c: usize, h: usize, w: usize },
}

impl BuilderShape {
    fn dim(self) -> usize {
        match self {
            BuilderShape::Flat(d) => d,
            BuilderShape::Image { c, h, w } => c * h * w,
        }
    }
}

impl NetworkBuilder {
    /// Starts a builder for a flat input of dimension `input_dim`.
    ///
    /// # Panics
    ///
    /// Panics if `input_dim == 0`.
    pub fn flat(seed: u64, input_dim: usize) -> Self {
        assert!(input_dim > 0, "flat: input dimension must be positive");
        Self {
            rng: Prng::seed(seed),
            input_dim,
            shape: BuilderShape::Flat(input_dim),
            layers: Vec::new(),
            error: None,
        }
    }

    /// Starts a builder for an image input of shape `(c, h, w)`.
    ///
    /// # Panics
    ///
    /// Panics if any dimension is zero.
    pub fn image(seed: u64, c: usize, h: usize, w: usize) -> Self {
        assert!(
            c > 0 && h > 0 && w > 0,
            "image: dimensions must be positive"
        );
        Self {
            rng: Prng::seed(seed),
            input_dim: c * h * w,
            shape: BuilderShape::Image { c, h, w },
            layers: Vec::new(),
            error: None,
        }
    }

    /// Appends a dense layer (flattening any image shape) plus activation.
    pub fn dense(mut self, out: usize, activation: Activation) -> Self {
        let in_dim = self.shape.dim();
        let init = match activation {
            Activation::Relu | Activation::LeakyRelu { .. } => Init::HeNormal,
            _ => Init::XavierUniform,
        };
        self.layers.push(Layer::Dense(Dense::seeded(
            &mut self.rng,
            in_dim,
            out,
            init,
        )));
        if activation != Activation::Identity {
            self.layers.push(Layer::Activation(activation));
        }
        self.shape = BuilderShape::Flat(out);
        self
    }

    /// Appends a convolution (He-initialized) plus activation.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the running shape is flat (use
    /// [`NetworkBuilder::image`]) or the convolution geometry is invalid.
    pub fn conv(
        mut self,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        activation: Activation,
    ) -> Result<Self, NnError> {
        let BuilderShape::Image { c, h, w } = self.shape else {
            return Err(NnError::InvalidConfig(
                "conv: running shape is flat, not an image".into(),
            ));
        };
        let conv = Conv2d::seeded(
            &mut self.rng,
            c,
            h,
            w,
            out_channels,
            kernel,
            stride,
            padding,
            Init::HeNormal,
        )?;
        self.shape = BuilderShape::Image {
            c: out_channels,
            h: conv.out_h(),
            w: conv.out_w(),
        };
        self.layers.push(Layer::Conv2d(conv));
        if activation != Activation::Identity {
            self.layers.push(Layer::Activation(activation));
        }
        Ok(self)
    }

    /// Appends a max-pooling stage.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the running shape is flat or
    /// the pooling geometry is invalid.
    pub fn maxpool(mut self, pool: usize, stride: usize) -> Result<Self, NnError> {
        let BuilderShape::Image { c, h, w } = self.shape else {
            return Err(NnError::InvalidConfig(
                "maxpool: running shape is flat, not an image".into(),
            ));
        };
        let p = MaxPool2d::new(c, h, w, pool, stride)?;
        self.shape = BuilderShape::Image {
            c,
            h: p.out_h(),
            w: p.out_w(),
        };
        self.layers.push(Layer::MaxPool2d(p));
        Ok(self)
    }

    /// Appends an average-pooling stage.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if the running shape is flat or
    /// the pooling geometry is invalid.
    pub fn avgpool(mut self, pool: usize, stride: usize) -> Result<Self, NnError> {
        let BuilderShape::Image { c, h, w } = self.shape else {
            return Err(NnError::InvalidConfig(
                "avgpool: running shape is flat, not an image".into(),
            ));
        };
        let p = AvgPool2d::new(c, h, w, pool, stride)?;
        self.shape = BuilderShape::Image {
            c,
            h: p.out_h(),
            w: p.out_w(),
        };
        self.layers.push(Layer::AvgPool2d(p));
        Ok(self)
    }

    /// Finishes the network.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] if no layers were added.
    pub fn build(self) -> Result<Network, NnError> {
        if let Some(msg) = self.error {
            return Err(NnError::InvalidConfig(msg));
        }
        Network::from_layers(self.input_dim, self.layers)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::BatchNorm1d;
    use napmon_tensor::Matrix;
    use proptest::prelude::*;

    fn two_layer() -> Network {
        // 2 -> 3 (ReLU) -> 1
        let l1 = Dense::new(
            Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 1.0], &[1.0, 1.0]]),
            vec![0.0, -0.5, 0.0],
        )
        .unwrap();
        let l2 = Dense::new(Matrix::from_rows(&[&[1.0, 1.0, 1.0]]), vec![0.25]).unwrap();
        Network::from_layers(
            2,
            vec![
                Layer::Dense(l1),
                Layer::Activation(Activation::Relu),
                Layer::Dense(l2),
            ],
        )
        .unwrap()
    }

    #[test]
    fn from_layers_validates_dimension_chain() {
        let bad = Dense::new(Matrix::identity(3), vec![0.0; 3]).unwrap();
        let err = Network::from_layers(2, vec![Layer::Dense(bad)]).unwrap_err();
        assert!(matches!(err, NnError::ShapeMismatch { .. }));
        assert!(Network::from_layers(0, vec![]).is_err());
        assert!(Network::from_layers(2, vec![]).is_err());
    }

    #[test]
    fn dims_tracks_every_boundary() {
        let net = two_layer();
        assert_eq!(net.dims(), vec![2, 3, 3, 1]);
        assert_eq!(net.dim_at(0), 2);
        assert_eq!(net.dim_at(2), 3);
        assert_eq!(net.input_dim(), 2);
        assert_eq!(net.output_dim(), 1);
        assert_eq!(net.num_layers(), 3);
    }

    #[test]
    fn forward_composes_layers() {
        let net = two_layer();
        // x = (1, 2): dense -> (1, 1.5, 3), relu -> same, sum + 0.25 = 5.75
        assert_eq!(net.forward(&[1.0, 2.0]), vec![5.75]);
        // x = (-1, 0): dense -> (-1, -0.5, -1), relu -> 0, out = 0.25
        assert_eq!(net.forward(&[-1.0, 0.0]), vec![0.25]);
    }

    #[test]
    fn forward_prefix_zero_is_identity() {
        let net = two_layer();
        assert_eq!(net.forward_prefix(&[3.0, -4.0], 0), vec![3.0, -4.0]);
    }

    #[test]
    fn prefix_then_range_equals_full_forward() {
        let net = two_layer();
        let x = [0.3, 0.8];
        for k in 0..=net.num_layers() {
            let mid = net.forward_prefix(&x, k);
            let out = net.forward_range(&mid, k, net.num_layers());
            assert_eq!(out, net.forward(&x), "split at boundary {k}");
        }
    }

    #[test]
    fn boundary_values_match_prefixes() {
        let net = two_layer();
        let x = [1.0, 2.0];
        let bs = net.boundary_values(&x);
        assert_eq!(bs.len(), net.num_layers() + 1);
        for (k, b) in bs.iter().enumerate() {
            assert_eq!(*b, net.forward_prefix(&x, k));
        }
    }

    #[test]
    fn penultimate_boundary_points_before_last_dense() {
        let net = two_layer();
        // Layers: [Dense, Relu, Dense] -> last dense at index 2 -> boundary 2.
        assert_eq!(net.penultimate_boundary(), 2);
    }

    #[test]
    fn seeded_network_shapes_and_determinism() {
        let a = Network::seeded(
            5,
            4,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(3, Activation::Identity),
            ],
        );
        let b = Network::seeded(
            5,
            4,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(3, Activation::Identity),
            ],
        );
        assert_eq!(a, b);
        assert_eq!(a.dims(), vec![4, 8, 8, 3]);
        assert_eq!(a.num_params(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn builder_tracks_image_shapes() {
        let net = NetworkBuilder::image(7, 1, 8, 8)
            .conv(4, 3, 1, 1, Activation::Relu)
            .unwrap()
            .maxpool(2, 2)
            .unwrap()
            .dense(16, Activation::Relu)
            .dense(2, Activation::Identity)
            .build()
            .unwrap();
        // conv keeps 8x8 (padding 1), pool halves to 4x4, 4 channels = 64.
        assert_eq!(net.dims(), vec![64, 256, 256, 64, 16, 16, 2]);
    }

    #[test]
    fn builder_rejects_conv_after_dense() {
        let err = NetworkBuilder::image(7, 1, 8, 8)
            .dense(16, Activation::Relu)
            .conv(4, 3, 1, 1, Activation::Relu)
            .unwrap_err();
        assert!(err.to_string().contains("flat"));
    }

    /// Every layer kind and every activation: 1x8x8 image → conv (2
    /// channels) → avg pool → tanh → max pool → dense → batch norm → leaky
    /// ReLU → dense → sigmoid → dense → identity → ReLU.
    fn every_layer_net() -> Network {
        let mut rng = Prng::seed(41);
        let conv = Conv2d::seeded(&mut rng, 1, 8, 8, 2, 3, 1, 1, Init::HeNormal).unwrap();
        let bn =
            BatchNorm1d::new(rng.uniform_vec(7, 0.5, 2.0), rng.uniform_vec(7, -1.0, 1.0)).unwrap();
        let layers = vec![
            Layer::Conv2d(conv),
            Layer::AvgPool2d(AvgPool2d::new(2, 8, 8, 2, 2).unwrap()),
            Layer::Activation(Activation::Tanh),
            Layer::MaxPool2d(MaxPool2d::new(2, 4, 4, 2, 2).unwrap()),
            Layer::Dense(Dense::seeded(&mut rng, 8, 7, Init::XavierUniform)),
            Layer::BatchNorm(bn),
            Layer::Activation(Activation::leaky_relu()),
            Layer::Dense(Dense::seeded(&mut rng, 7, 5, Init::XavierUniform)),
            Layer::Activation(Activation::Sigmoid),
            Layer::Dense(Dense::seeded(&mut rng, 5, 6, Init::HeNormal)),
            Layer::Activation(Activation::Identity),
            Layer::Activation(Activation::Relu),
        ];
        Network::from_layers(64, layers).unwrap()
    }

    proptest! {
        #[test]
        fn batch_forward_rows_match_single_forward_at_every_boundary(
            n in 0usize..=9,
            seed in 0u64..u64::MAX,
        ) {
            let net = every_layer_net();
            let mut rng = Prng::seed(seed);
            let inputs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    let mut x = rng.uniform_vec(64, -1.0, 1.0);
                    // Every third row carries a non-finite entry, which must
                    // stay in its own row.
                    if i % 3 == 2 {
                        let special = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY][i % 9 / 3];
                        x[rng.index(64)] = special;
                    }
                    x
                })
                .collect();
            // NaN sign and payload are unspecified in Rust; see the tensor
            // crate's kernel tests.
            let bits = |v: &[f64]| {
                v.iter()
                    .map(|f| if f.is_nan() { u64::MAX } else { f.to_bits() })
                    .collect::<Vec<_>>()
            };
            let (mut batch, mut single) = (ForwardScratch::new(), ForwardScratch::new());
            for k in 0..=net.num_layers() {
                let dk = net.dim_at(k);
                let out = net.forward_prefix_batch_into(&inputs, k, &mut batch);
                prop_assert_eq!(out.len(), n * dk);
                for (i, x) in inputs.iter().enumerate() {
                    let want = net.forward_prefix_into(x, k, &mut single);
                    prop_assert!(
                        bits(&out[i * dk..(i + 1) * dk]) == bits(want),
                        "boundary {k}, row {i} of {n}"
                    );
                }
            }
        }
    }

    #[test]
    fn predict_class_takes_argmax() {
        let l = Dense::new(Matrix::from_rows(&[&[1.0], &[2.0], &[-1.0]]), vec![0.0; 3]).unwrap();
        let net = Network::from_layers(1, vec![Layer::Dense(l)]).unwrap();
        assert_eq!(net.predict_class(&[1.0]), 1);
        assert_eq!(net.predict_class(&[-1.0]), 2);
    }
}

impl std::fmt::Display for Network {
    /// One line per layer plus a parameter count — the quick sanity view
    /// for experiment logs.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "Network {} -> {} ({} layers, {} params)",
            self.input_dim(),
            self.output_dim(),
            self.num_layers(),
            self.num_params()
        )?;
        let dims = self.dims();
        for (i, layer) in self.layers.iter().enumerate() {
            let kind = match layer {
                Layer::Dense(_) => "dense",
                Layer::Conv2d(_) => "conv2d",
                Layer::MaxPool2d(_) => "maxpool2d",
                Layer::AvgPool2d(_) => "avgpool2d",
                Layer::BatchNorm(_) => "batchnorm",
                Layer::Activation(Activation::Identity) => "identity",
                Layer::Activation(Activation::Relu) => "relu",
                Layer::Activation(Activation::LeakyRelu { .. }) => "leaky-relu",
                Layer::Activation(Activation::Sigmoid) => "sigmoid",
                Layer::Activation(Activation::Tanh) => "tanh",
            };
            writeln!(
                f,
                "  [{:>2}] {:<10} {:>5} -> {:<5}",
                i + 1,
                kind,
                dims[i],
                dims[i + 1]
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod display_tests {
    use super::*;

    #[test]
    fn display_lists_every_layer_and_param_count() {
        let net = Network::seeded(
            1,
            4,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        );
        let s = net.to_string();
        assert!(s.contains("Network 4 -> 2"), "{s}");
        assert!(s.contains("dense"));
        assert!(s.contains("relu"));
        assert!(s.contains(&format!("{} params", net.num_params())));
        // One line per layer plus the header.
        assert_eq!(s.lines().count(), net.num_layers() + 1);
    }
}
