//! Inference-time batch normalization.

use crate::error::NnError;
use serde::{de, Deserialize, Deserializer, Serialize};

/// Batch normalization with *frozen* statistics: `y = scale ⊙ x + shift`.
///
/// After training, batch norm is a per-channel affine map
/// `y = γ (x − μ) / √(σ² + ε) + β`; this type stores the folded
/// `scale = γ/√(σ²+ε)` and `shift = β − μ·scale`. The monitors only ever
/// see trained networks (the paper fixes all parameters), so no training
/// mode is provided — [`BatchNorm1d::backward`] propagates gradients to
/// the input but treats the statistics as constants, which lets a frozen
/// norm layer sit inside a network that is still being fine-tuned.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BatchNorm1d {
    scale: Vec<f64>,
    shift: Vec<f64>,
}

impl BatchNorm1d {
    /// Creates a normalization layer from folded scale/shift vectors.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] if lengths differ or
    /// [`NnError::InvalidConfig`] if they are empty.
    pub fn new(scale: Vec<f64>, shift: Vec<f64>) -> Result<Self, NnError> {
        if scale.is_empty() {
            return Err(NnError::InvalidConfig(
                "batch norm over zero dimensions".into(),
            ));
        }
        if scale.len() != shift.len() {
            return Err(NnError::ShapeMismatch {
                context: "batch norm shift".into(),
                expected: scale.len(),
                actual: shift.len(),
            });
        }
        Ok(Self { scale, shift })
    }

    /// Creates a layer from raw batch-norm parameters
    /// (`γ, β, running mean, running variance, ε`).
    ///
    /// # Errors
    ///
    /// Returns [`NnError::ShapeMismatch`] on length mismatches or
    /// [`NnError::InvalidConfig`] for non-positive `ε` / negative variance.
    pub fn from_moments(
        gamma: &[f64],
        beta: &[f64],
        mean: &[f64],
        variance: &[f64],
        eps: f64,
    ) -> Result<Self, NnError> {
        let d = gamma.len();
        for (name, v) in [
            ("beta", beta.len()),
            ("mean", mean.len()),
            ("variance", variance.len()),
        ] {
            if v != d {
                return Err(NnError::ShapeMismatch {
                    context: format!("batch norm {name}"),
                    expected: d,
                    actual: v,
                });
            }
        }
        if eps <= 0.0 {
            return Err(NnError::InvalidConfig(format!(
                "batch norm eps must be positive, got {eps}"
            )));
        }
        if variance.iter().any(|&v| v < 0.0) {
            return Err(NnError::InvalidConfig(
                "batch norm variance must be non-negative".into(),
            ));
        }
        let scale: Vec<f64> = gamma
            .iter()
            .zip(variance)
            .map(|(g, v)| g / (v + eps).sqrt())
            .collect();
        let shift: Vec<f64> = beta
            .iter()
            .zip(mean.iter().zip(&scale))
            .map(|(b, (m, s))| b - m * s)
            .collect();
        Self::new(scale, shift)
    }

    /// Dimension (input = output).
    pub fn dim(&self) -> usize {
        self.scale.len()
    }

    /// Per-dimension scale.
    pub fn scale(&self) -> &[f64] {
        &self.scale
    }

    /// Per-dimension shift.
    pub fn shift(&self) -> &[f64] {
        &self.shift
    }

    /// Applies `scale ⊙ x + shift`.
    ///
    /// # Panics
    ///
    /// Panics if `x.len() != self.dim()`.
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(
            x.len(),
            self.dim(),
            "batch norm forward: dimension mismatch"
        );
        x.iter()
            .zip(self.scale.iter().zip(&self.shift))
            .map(|(v, (s, b))| v * s + b)
            .collect()
    }

    /// Backpropagates to the input (statistics are frozen constants).
    ///
    /// # Panics
    ///
    /// Panics if `dy.len() != self.dim()`.
    pub fn backward(&self, dy: &[f64]) -> Vec<f64> {
        assert_eq!(
            dy.len(),
            self.dim(),
            "batch norm backward: dimension mismatch"
        );
        dy.iter().zip(&self.scale).map(|(d, s)| d * s).collect()
    }
}

/// A batch norm as it is serialized, checked before it becomes a
/// [`BatchNorm1d`].
#[derive(Deserialize)]
struct BatchNormFields {
    scale: Vec<f64>,
    shift: Vec<f64>,
}

/// Loads through [`BatchNorm1d::new`]: an empty layer, or a shift whose
/// length differs from the scale's, is refused.
impl<'de> Deserialize<'de> for BatchNorm1d {
    fn deserialize<D: Deserializer<'de>>(deserializer: D) -> Result<Self, D::Error> {
        let BatchNormFields { scale, shift } = BatchNormFields::deserialize(deserializer)?;
        BatchNorm1d::new(scale, shift).map_err(de::Error::custom)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_validates_shapes() {
        assert!(BatchNorm1d::new(vec![], vec![]).is_err());
        assert!(BatchNorm1d::new(vec![1.0], vec![1.0, 2.0]).is_err());
        assert!(BatchNorm1d::new(vec![1.0, 2.0], vec![0.0, 0.0]).is_ok());
    }

    #[test]
    fn from_moments_folds_correctly() {
        // γ=2, β=1, μ=3, σ²=4, ε→0: y = 2(x−3)/2 + 1 = x − 2.
        let bn = BatchNorm1d::from_moments(&[2.0], &[1.0], &[3.0], &[4.0], 1e-12).unwrap();
        let y = bn.forward(&[5.0]);
        assert!((y[0] - 3.0).abs() < 1e-6);
    }

    #[test]
    fn from_moments_validates() {
        assert!(BatchNorm1d::from_moments(&[1.0], &[0.0], &[0.0], &[1.0], 0.0).is_err());
        assert!(BatchNorm1d::from_moments(&[1.0], &[0.0], &[0.0], &[-1.0], 1e-5).is_err());
        assert!(BatchNorm1d::from_moments(&[1.0], &[0.0, 0.0], &[0.0], &[1.0], 1e-5).is_err());
    }

    #[test]
    fn linear_parts_match_affine_decomposition() {
        // The split the abstract domains read: `forward = scale ⊙ x + shift`.
        let bn = BatchNorm1d::new(vec![2.0, -0.5], vec![1.0, 0.25]).unwrap();
        let x = [3.0, 4.0];
        let full = bn.forward(&x);
        for i in 0..2 {
            assert_eq!(full[i], x[i] * bn.scale()[i] + bn.shift()[i]);
        }
    }

    #[test]
    fn backward_scales_gradients() {
        let bn = BatchNorm1d::new(vec![2.0, -0.5], vec![0.0, 0.0]).unwrap();
        assert_eq!(bn.backward(&[1.0, 1.0]), vec![2.0, -0.5]);
    }
}
