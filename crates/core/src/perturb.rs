//! The perturbation estimate of Definition 1.
//!
//! [`perturbation_estimate`] bounds one point. Monitor construction bounds
//! its whole training set batched (one forward pass to `kp` for the
//! Δ-box centres, then one `Propagator::bounds_batch` call), and every
//! point's estimate is the same bits either way.

use crate::error::MonitorError;
use crate::feature::{check_input_dim, rows};
use napmon_absint::{propagate::Propagator, BoxBounds, Domain};
use napmon_nn::{ForwardScratch, Network};

/// Computes the paper's `pe^G_k(v_tr, kp, Δ)`:
/// sound per-neuron bounds `⟨(l_1,u_1),…,(l_{d_k},u_{d_k})⟩` at boundary `k`
/// over all perturbations `δ` with `|δ_j| ≤ Δ` applied at the output of
/// layer `kp` (with `kp = 0` meaning the raw input).
///
/// The guarantee (Definition 1, eq. 1): for every `v̆` with
/// `|v̆_j − G^{kp}_j(v_tr)| ≤ Δ`, each component of `G^{kp+1→k}(v̆)` lies in
/// `[l_j, u_j]`.
///
/// # Errors
///
/// Returns [`MonitorError::InvalidConfig`] if `kp >= k` or `k` exceeds the
/// network depth, [`MonitorError::DimensionMismatch`] if `v_tr` has the
/// wrong dimension, and `InvalidConfig` for negative `Δ`.
///
/// ```
/// use napmon_core::perturbation_estimate;
/// use napmon_absint::Domain;
/// use napmon_nn::{Activation, LayerSpec, Network};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let net = Network::seeded(5, 2, &[LayerSpec::dense(3, Activation::Relu)]);
/// let pe = perturbation_estimate(&net, &[0.5, -0.5], 0, 2, 0.1, Domain::Box)?;
/// // The unperturbed image is inside its own estimate.
/// let y = net.forward_prefix(&[0.5, -0.5], 2);
/// assert!(pe.contains(&y));
/// # Ok(())
/// # }
/// ```
pub fn perturbation_estimate(
    net: &Network,
    v_tr: &[f64],
    kp: usize,
    k: usize,
    delta: f64,
    domain: Domain,
) -> Result<BoxBounds, MonitorError> {
    let prop = Propagator::new(net, domain);
    let mut forward = ForwardScratch::new();
    let mut pe = perturbation_estimates(&prop, &[v_tr], kp, k, delta, &mut forward)?;
    Ok(pe.pop().expect("one point, one estimate"))
}

/// [`perturbation_estimate`] for every point of `points`, in order, over
/// one cached [`Propagator`] (the robust build's loop): one batched forward
/// pass to `kp` gives the Δ-box centres, and one
/// [`Propagator::bounds_batch`] call bounds them all. Each estimate is the
/// same bits as the point's estimate alone.
///
/// # Errors
///
/// Same conditions as [`perturbation_estimate`], for the first point with
/// the wrong dimension.
pub(crate) fn perturbation_estimates<R: AsRef<[f64]>>(
    prop: &Propagator<'_>,
    points: &[R],
    kp: usize,
    k: usize,
    delta: f64,
    forward: &mut ForwardScratch,
) -> Result<Vec<BoxBounds>, MonitorError> {
    let net = prop.network();
    if k > net.num_layers() || kp >= k {
        return Err(MonitorError::InvalidConfig(format!(
            "perturbation estimate needs 0 <= kp < k <= {}, got kp={kp}, k={k}",
            net.num_layers()
        )));
    }
    if delta < 0.0 || !delta.is_finite() {
        return Err(MonitorError::InvalidConfig(format!(
            "delta must be finite and non-negative, got {delta}"
        )));
    }
    for v_tr in points {
        check_input_dim(net, v_tr.as_ref(), "perturbation estimate input")?;
    }
    let centres = net.forward_prefix_batch_into(points, kp, forward);
    let boxes: Vec<BoxBounds> = rows(centres, net.dim_at(kp), points.len())
        .map(|c| BoxBounds::from_center_radius(c, delta))
        .collect();
    Ok(prop.bounds_batch(kp, k, &boxes))
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{Activation, LayerSpec};
    use napmon_tensor::Prng;

    fn net() -> Network {
        Network::seeded(
            9,
            3,
            &[
                LayerSpec::dense(8, Activation::Relu),
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        )
    }

    #[test]
    fn validates_ranges() {
        let net = net();
        let x = [0.0, 0.0, 0.0];
        assert!(perturbation_estimate(&net, &x, 2, 2, 0.1, Domain::Box).is_err());
        assert!(perturbation_estimate(&net, &x, 0, 99, 0.1, Domain::Box).is_err());
        assert!(perturbation_estimate(&net, &x, 0, 2, -0.1, Domain::Box).is_err());
        assert!(perturbation_estimate(&net, &[0.0], 0, 2, 0.1, Domain::Box).is_err());
        assert!(perturbation_estimate(&net, &x, 0, 2, 0.1, Domain::Box).is_ok());
    }

    #[test]
    fn definition_1_guarantee_at_input_layer() {
        // Sample perturbed inputs; their layer-k images must stay enclosed.
        let net = net();
        let mut rng = Prng::seed(51);
        let v = [0.2, -0.1, 0.5];
        let delta = 0.08;
        let k = net.num_layers();
        let pe = perturbation_estimate(&net, &v, 0, k, delta, Domain::Box).unwrap();
        for _ in 0..500 {
            let pert: Vec<f64> = v.iter().map(|&c| c + rng.uniform(-delta, delta)).collect();
            assert!(pe.contains(&net.forward_prefix(&pert, k)));
        }
    }

    #[test]
    fn definition_1_guarantee_at_hidden_boundary() {
        // Perturbation injected at boundary kp=2 (after first ReLU).
        let net = net();
        let mut rng = Prng::seed(52);
        let v = [0.3, 0.3, -0.4];
        let (kp, k, delta) = (2, 4, 0.05);
        let pe = perturbation_estimate(&net, &v, kp, k, delta, Domain::Box).unwrap();
        let at_kp = net.forward_prefix(&v, kp);
        for _ in 0..500 {
            let pert: Vec<f64> = at_kp
                .iter()
                .map(|&c| c + rng.uniform(-delta, delta))
                .collect();
            assert!(pe.contains(&net.forward_range(&pert, kp, k)));
        }
    }

    #[test]
    fn zero_delta_estimate_hugs_the_point() {
        let net = net();
        let v = [0.1, 0.9, -0.3];
        let k = 2;
        let pe = perturbation_estimate(&net, &v, 0, k, 0.0, Domain::Box).unwrap();
        let y = net.forward_prefix(&v, k);
        assert!(pe.contains(&y));
        assert!(pe.mean_width() < 1e-10, "width {}", pe.mean_width());
    }

    #[test]
    fn estimates_grow_with_delta() {
        let net = net();
        let v = [0.4, -0.2, 0.0];
        let k = net.num_layers();
        let small = perturbation_estimate(&net, &v, 0, k, 0.01, Domain::Box).unwrap();
        let large = perturbation_estimate(&net, &v, 0, k, 0.1, Domain::Box).unwrap();
        assert!(large.encloses(&small));
        assert!(large.mean_width() > small.mean_width());
    }

    #[test]
    fn all_domains_agree_on_containment() {
        let net = net();
        let v = [0.25, 0.5, -0.25];
        let k = net.num_layers();
        let mut rng = Prng::seed(53);
        for domain in Domain::ALL {
            let pe = perturbation_estimate(&net, &v, 0, k, 0.06, domain).unwrap();
            for _ in 0..200 {
                let pert: Vec<f64> = v.iter().map(|&c| c + rng.uniform(-0.06, 0.06)).collect();
                assert!(pe.contains(&net.forward(&pert)), "{domain}");
            }
        }
    }
}
