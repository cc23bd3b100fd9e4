//! Feature extraction: which boundary and which neurons a monitor watches.

use crate::error::MonitorError;
use napmon_absint::BoxBounds;
use napmon_nn::{ForwardScratch, Network};
use serde::{Deserialize, Serialize};

/// Selects the monitored feature vector: the values of boundary `layer`
/// (the paper's `G^k`), optionally restricted to a neuron subset.
///
/// Monitoring a subset is the paper's "selecting a subset of neurons to be
/// monitored" extension; `None` monitors the whole layer.
///
/// ```
/// use napmon_core::FeatureExtractor;
/// use napmon_nn::{Activation, LayerSpec, Network};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::seeded(1, 3, &[LayerSpec::dense(6, Activation::Relu)]);
/// let fx = FeatureExtractor::new(&net, 2)?; // boundary after the ReLU
/// assert_eq!(fx.dim(), 6);
/// let f = fx.features(&net, &[0.1, 0.2, 0.3])?;
/// assert_eq!(f.len(), 6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FeatureExtractor {
    layer: usize,
    layer_dim: usize,
    neurons: Option<Vec<usize>>,
}

impl FeatureExtractor {
    /// Monitors all neurons of boundary `layer` of `net`.
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] if `layer` is not a valid
    /// boundary (`1..=net.num_layers()`; boundary 0 would monitor the raw
    /// input, which the paper rules out for image-sized inputs).
    pub fn new(net: &Network, layer: usize) -> Result<Self, MonitorError> {
        if layer == 0 || layer > net.num_layers() {
            return Err(MonitorError::InvalidConfig(format!(
                "monitored boundary {layer} out of range 1..={}",
                net.num_layers()
            )));
        }
        Ok(Self {
            layer,
            layer_dim: net.dim_at(layer),
            neurons: None,
        })
    }

    /// Restricts monitoring to the given neuron indices (deduplicated,
    /// kept in the given order).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::InvalidConfig`] if the subset is empty or an
    /// index is out of range.
    pub fn with_neurons(mut self, neurons: Vec<usize>) -> Result<Self, MonitorError> {
        if neurons.is_empty() {
            return Err(MonitorError::InvalidConfig("neuron subset is empty".into()));
        }
        let mut seen = std::collections::HashSet::new();
        let mut unique = Vec::with_capacity(neurons.len());
        for n in neurons {
            if n >= self.layer_dim {
                return Err(MonitorError::InvalidConfig(format!(
                    "neuron {n} out of range for layer width {}",
                    self.layer_dim
                )));
            }
            if seen.insert(n) {
                unique.push(n);
            }
        }
        self.neurons = Some(unique);
        Ok(self)
    }

    /// The monitored boundary index `k`.
    pub fn layer(&self) -> usize {
        self.layer
    }

    /// Number of monitored neurons.
    pub fn dim(&self) -> usize {
        self.neurons.as_ref().map_or(self.layer_dim, Vec::len)
    }

    /// Width of the monitored boundary before subsetting.
    pub fn layer_dim(&self) -> usize {
        self.layer_dim
    }

    /// The monitored neuron indices, if a subset is configured.
    pub fn neurons(&self) -> Option<&[usize]> {
        self.neurons.as_deref()
    }

    /// Projects a full layer vector onto the monitored neurons.
    ///
    /// # Panics
    ///
    /// Panics if `full.len() != self.layer_dim()`.
    pub fn project(&self, full: &[f64]) -> Vec<f64> {
        assert_eq!(full.len(), self.layer_dim, "project: layer width mismatch");
        match &self.neurons {
            None => full.to_vec(),
            Some(idx) => idx.iter().map(|&i| full[i]).collect(),
        }
    }

    /// Projects full-layer bounds onto the monitored neurons.
    ///
    /// # Panics
    ///
    /// Panics if `bounds.dim() != self.layer_dim()`.
    pub fn project_bounds(&self, bounds: &BoxBounds) -> BoxBounds {
        assert_eq!(
            bounds.dim(),
            self.layer_dim,
            "project_bounds: layer width mismatch"
        );
        match &self.neurons {
            None => bounds.clone(),
            Some(idx) => BoxBounds::new(
                idx.iter().map(|&i| bounds.lo()[i]).collect(),
                idx.iter().map(|&i| bounds.hi()[i]).collect(),
            ),
        }
    }

    /// Computes the monitored feature vector `G^k(input)` (projected).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not match
    /// the network input dimension.
    pub fn features(&self, net: &Network, input: &[f64]) -> Result<Vec<f64>, MonitorError> {
        check_input_dim(net, input, "feature extraction input")?;
        Ok(self.project(&net.forward_prefix(input, self.layer)))
    }

    /// Computes `G^k(input)` (projected) into a reused output buffer via
    /// reused forward-pass buffers — the allocation-free query path, and
    /// the one-input case of [`FeatureExtractor::features_batch_into`].
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] if `input` does not match
    /// the network input dimension.
    pub fn features_into(
        &self,
        net: &Network,
        input: &[f64],
        forward: &mut ForwardScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MonitorError> {
        self.features_batch_into(net, &[input], forward, out)
    }

    /// Computes `G^k` (projected) for a whole batch in one batched forward
    /// pass ([`Network::forward_prefix_batch_into`]), writing the feature
    /// vectors row-major into `out`: `inputs.len()` rows of
    /// [`FeatureExtractor::dim`] values, in input order. Row `i` is
    /// bit-identical to [`FeatureExtractor::features_into`] on input `i`
    /// alone.
    ///
    /// Every verdict path extracts its features here, so this is where a
    /// finite input whose forward pass overflows is refused: ReLU maps the
    /// NaN of `inf - inf`, and `-inf`, to `0.0`, so its features would hide
    /// the overflow. A row whose input is itself non-finite passes, for the
    /// monitors' [`Violation::NonFinite`](crate::Violation::NonFinite).
    ///
    /// # Errors
    ///
    /// Returns [`MonitorError::DimensionMismatch`] for the first input
    /// whose length does not match the network input dimension — the
    /// error a per-input loop would stop at; nothing is computed then.
    /// Returns [`MonitorError::NonFinite`], naming the input and the
    /// boundary, for the first finite input with a NaN or infinity at a
    /// boundary up to the watched one; `out` must not be read then.
    pub fn features_batch_into<R: AsRef<[f64]>>(
        &self,
        net: &Network,
        inputs: &[R],
        forward: &mut ForwardScratch,
        out: &mut Vec<f64>,
    ) -> Result<(), MonitorError> {
        self.features_batch_named(net, inputs, forward, out, |row| format!("input {row}"))
    }

    /// [`FeatureExtractor::features_batch_into`], where `name(row)` says
    /// which input row `row` is when it is refused as
    /// [`MonitorError::NonFinite`] (the build names training samples).
    pub(crate) fn features_batch_named<R: AsRef<[f64]>>(
        &self,
        net: &Network,
        inputs: &[R],
        forward: &mut ForwardScratch,
        out: &mut Vec<f64>,
        name: impl Fn(usize) -> String,
    ) -> Result<(), MonitorError> {
        if let Some(bad) = inputs
            .iter()
            .map(AsRef::as_ref)
            .find(|x| x.len() != net.input_dim())
        {
            return Err(MonitorError::DimensionMismatch {
                context: "feature extraction input".into(),
                expected: net.input_dim(),
                actual: bad.len(),
            });
        }
        let full = net.forward_prefix_batch_into(inputs, self.layer, forward);
        out.clear();
        match &self.neurons {
            None => out.extend_from_slice(full),
            Some(idx) => {
                for row in rows(full, self.layer_dim, inputs.len()) {
                    out.extend(idx.iter().map(|&i| row[i]));
                }
            }
        }
        let overflowed = forward
            .non_finite_rows()
            .iter()
            .filter(|&&(row, _)| inputs[row].as_ref().iter().all(|v| v.is_finite()))
            .min_by_key(|&&(row, _)| row);
        if let Some(&(row, boundary)) = overflowed {
            return Err(MonitorError::NonFinite {
                context: format!(
                    "boundary {boundary} of the forward pass of {}, \
                     though the input is finite",
                    name(row)
                ),
            });
        }
        Ok(())
    }
}

/// [`MonitorError::DimensionMismatch`], naming `context`, unless `input`
/// has the network's input dimension.
pub(crate) fn check_input_dim(
    net: &Network,
    input: &[f64],
    context: &str,
) -> Result<(), MonitorError> {
    if input.len() == net.input_dim() {
        return Ok(());
    }
    Err(MonitorError::DimensionMismatch {
        context: context.into(),
        expected: net.input_dim(),
        actual: input.len(),
    })
}

/// The `n` rows of `dim` values each of a row-major batch buffer.
pub(crate) fn rows(flat: &[f64], dim: usize, n: usize) -> impl Iterator<Item = &[f64]> {
    (0..n).map(move |i| &flat[i * dim..(i + 1) * dim])
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{Activation, LayerSpec};

    fn net() -> Network {
        Network::seeded(
            3,
            4,
            &[
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        )
    }

    #[test]
    fn new_validates_boundary() {
        let net = net();
        assert!(FeatureExtractor::new(&net, 0).is_err());
        assert!(FeatureExtractor::new(&net, 4).is_err());
        assert!(FeatureExtractor::new(&net, 3).is_ok());
    }

    #[test]
    fn full_layer_features_match_prefix() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        let x = [0.1, 0.2, 0.3, 0.4];
        assert_eq!(fx.features(&net, &x).unwrap(), net.forward_prefix(&x, 2));
    }

    #[test]
    fn subset_projects_in_order_and_dedups() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2)
            .unwrap()
            .with_neurons(vec![5, 0, 5, 2])
            .unwrap();
        assert_eq!(fx.dim(), 3);
        let full: Vec<f64> = (0..6).map(|i| i as f64).collect();
        assert_eq!(fx.project(&full), vec![5.0, 0.0, 2.0]);
    }

    #[test]
    fn subset_validation() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2).unwrap();
        assert!(fx.clone().with_neurons(vec![]).is_err());
        assert!(fx.clone().with_neurons(vec![6]).is_err());
        assert!(fx.with_neurons(vec![0, 5]).is_ok());
    }

    #[test]
    fn project_bounds_selects_dimensions() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 2)
            .unwrap()
            .with_neurons(vec![1, 3])
            .unwrap();
        let b = BoxBounds::new(
            (0..6).map(|i| i as f64).collect(),
            (0..6).map(|i| i as f64 + 0.5).collect(),
        );
        let p = fx.project_bounds(&b);
        assert_eq!(p.lo(), &[1.0, 3.0]);
        assert_eq!(p.hi(), &[1.5, 3.5]);
    }

    #[test]
    fn wrong_input_dim_is_reported() {
        let net = net();
        let fx = FeatureExtractor::new(&net, 1).unwrap();
        let err = fx.features(&net, &[1.0]).unwrap_err();
        assert!(matches!(err, MonitorError::DimensionMismatch { .. }));
    }
}
