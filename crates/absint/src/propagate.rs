//! Uniform driver: propagate a box through a slice of the network under a
//! chosen abstract domain.

use crate::affine::AffineView;
use crate::boxdom::BoxBounds;
use crate::star::StarSet;
use crate::zonotope::Zonotope;
use napmon_nn::Network;
use serde::{Deserialize, Serialize};

/// Which abstract domain computes the perturbation estimate.
///
/// The paper's Definition 1 permits any sound over-approximation and names
/// exactly these three ("boxed abstraction (interval bound propagation),
/// zonotope abstraction, or star sets"); its implementation uses `Box`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Interval bound propagation with outward rounding (fast, loosest).
    Box,
    /// Zonotopes / affine forms (tracks correlations; DeepZ ReLU).
    Zonotope,
    /// Polyhedral bounds with back-substitution (DeepPoly-style); an
    /// extension beyond the paper's three named machineries.
    Poly,
    /// Approximate star sets with LP bound queries (tightest, slowest).
    Star,
}

impl Domain {
    /// All supported domains, for sweeps.
    pub const ALL: [Domain; 4] = [Domain::Box, Domain::Zonotope, Domain::Poly, Domain::Star];

    /// Short lowercase name (`"box"`, `"zonotope"`, `"poly"`, `"star"`).
    pub fn name(self) -> &'static str {
        match self {
            Domain::Box => "box",
            Domain::Zonotope => "zonotope",
            Domain::Poly => "poly",
            Domain::Star => "star",
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A reusable propagation engine for one network.
///
/// Extracting the sparse [`AffineView`] of every affine layer is `O(params)`
/// per layer; monitors propagate thousands of per-sample boxes through the
/// same network, so the views are cached here once.
///
/// ```
/// use napmon_absint::{propagate::Propagator, BoxBounds, Domain};
/// use napmon_nn::{Activation, LayerSpec, Network};
///
/// let net = Network::seeded(2, 3, &[LayerSpec::dense(4, Activation::Relu)]);
/// let prop = Propagator::new(&net, Domain::Zonotope);
/// let out = prop.bounds(0, net.num_layers(), &BoxBounds::from_center_radius(&[0.0, 0.1, 0.2], 0.01));
/// assert_eq!(out.dim(), 4);
/// ```
#[derive(Debug, Clone)]
pub struct Propagator<'a> {
    net: &'a Network,
    domain: Domain,
    views: Vec<Option<AffineView>>,
}

impl<'a> Propagator<'a> {
    /// Caches affine views for `net` under `domain`.
    pub fn new(net: &'a Network, domain: Domain) -> Self {
        let views = net.layers().iter().map(AffineView::from_layer).collect();
        Self { net, domain, views }
    }

    /// The configured domain.
    pub fn domain(&self) -> Domain {
        self.domain
    }

    /// The network being propagated through.
    pub fn network(&self) -> &Network {
        self.net
    }

    fn step_zonotope(&self, z: &Zonotope, li: usize) -> Zonotope {
        match (&self.views[li], &self.net.layers()[li]) {
            (Some(view), _) => z.step_affine(view),
            (None, layer) => z.step(layer),
        }
    }

    fn step_star(&self, s: &StarSet, li: usize) -> StarSet {
        match (&self.views[li], &self.net.layers()[li]) {
            (Some(view), _) => s.step_affine(view),
            (None, layer) => s.step(layer),
        }
    }

    /// Propagates `input` (a box at boundary `from`) through layers
    /// `from+1..=to` and concretizes to per-neuron bounds at boundary `to`:
    /// the one-input call of [`Propagator::bounds_batch`].
    ///
    /// # Panics
    ///
    /// Panics if the range or the box dimension is invalid.
    pub fn bounds(&self, from: usize, to: usize, input: &BoxBounds) -> BoxBounds {
        let mut out = self.bounds_batch(from, to, std::slice::from_ref(input));
        out.pop().expect("one input, one result")
    }

    /// [`Propagator::bounds`] for every box of `inputs`, in order. Box
    /// bounds run batched across the inputs, with the vector lanes across
    /// boxes; each result is the same bits as the input propagated alone.
    ///
    /// # Panics
    ///
    /// Panics if the range or a box dimension is invalid.
    pub fn bounds_batch(&self, from: usize, to: usize, inputs: &[BoxBounds]) -> Vec<BoxBounds> {
        assert!(
            from <= to && to <= self.net.num_layers(),
            "invalid layer range {from}..{to}"
        );
        for input in inputs {
            assert_eq!(
                input.dim(),
                self.net.dim_at(from),
                "input box dimension at boundary {from}"
            );
        }
        let steps = (&self.net.layers()[from..to], &self.views[from..to]);
        let boxes = crate::boxdom::propagate(steps, inputs);
        // The richer domains run their own pass per input and meet it with
        // the box chain: both are sound enclosures, so the meet is sound and
        // never looser than plain interval bound propagation (the DeepZ
        // ReLU relaxation alone is not guaranteed to dominate IBP).
        let richer = |input: &BoxBounds| match self.domain {
            Domain::Box => None,
            Domain::Zonotope => {
                let mut z = Zonotope::from_box(input);
                for li in from..to {
                    z = self.step_zonotope(&z, li);
                }
                Some(z.bounds())
            }
            Domain::Poly => {
                let poly = crate::poly::PolyAnalysis::run(self.net, from, to, input);
                Some(poly.output_bounds())
            }
            Domain::Star => {
                let mut s = StarSet::from_box(input);
                for li in from..to {
                    s = self.step_star(&s, li);
                }
                Some(s.bounds())
            }
        };
        inputs
            .iter()
            .zip(boxes)
            .map(|(input, b)| match richer(input) {
                Some(r) => r.meet(&b),
                None => b,
            })
            .collect()
    }
}

/// One-shot convenience wrapper around [`Propagator`]: bounds of
/// `G^{from+1→to}(input)`.
///
/// # Panics
///
/// Panics if the range or the box dimension is invalid.
pub fn propagate_bounds(
    net: &Network,
    from: usize,
    to: usize,
    input: &BoxBounds,
    domain: Domain,
) -> BoxBounds {
    Propagator::new(net, domain).bounds(from, to, input)
}

#[cfg(test)]
mod tests {
    use super::*;
    use napmon_nn::{Activation, LayerSpec, Network};
    use napmon_tensor::Prng;
    use proptest::prelude::*;

    fn sample_net(seed: u64) -> Network {
        Network::seeded(
            seed,
            3,
            &[
                LayerSpec::dense(6, Activation::Relu),
                LayerSpec::dense(5, Activation::Relu),
                LayerSpec::dense(2, Activation::Identity),
            ],
        )
    }

    #[test]
    fn zero_radius_box_tracks_concrete_point() {
        let net = sample_net(1);
        let x = [0.2, -0.4, 0.6];
        let y = net.forward(&x);
        for domain in Domain::ALL {
            let out = propagate_bounds(
                &net,
                0,
                net.num_layers(),
                &BoxBounds::from_point(&x),
                domain,
            );
            assert!(out.contains(&y), "{domain}: concrete output escaped");
            assert!(
                out.mean_width() < 1e-6,
                "{domain}: width {}",
                out.mean_width()
            );
        }
    }

    #[test]
    fn all_domains_contain_perturbed_images() {
        let net = sample_net(2);
        let mut rng = Prng::seed(77);
        let center = [0.1, 0.3, -0.2];
        let delta = 0.15;
        let input = BoxBounds::from_center_radius(&center, delta);
        for domain in Domain::ALL {
            let out = propagate_bounds(&net, 0, net.num_layers(), &input, domain);
            for _ in 0..400 {
                let x: Vec<f64> = center
                    .iter()
                    .map(|&c| rng.uniform(c - delta, c + delta))
                    .collect();
                assert!(
                    out.contains(&net.forward(&x)),
                    "{domain}: perturbed image escaped"
                );
            }
        }
    }

    #[test]
    fn tighter_domains_are_no_looser() {
        let net = sample_net(3);
        let input = BoxBounds::from_center_radius(&[0.0, 0.1, -0.1], 0.2);
        let wb = propagate_bounds(&net, 0, net.num_layers(), &input, Domain::Box).mean_width();
        let wz = propagate_bounds(&net, 0, net.num_layers(), &input, Domain::Zonotope).mean_width();
        let ws = propagate_bounds(&net, 0, net.num_layers(), &input, Domain::Star).mean_width();
        assert!(wz <= wb + 1e-9, "zonotope {wz} vs box {wb}");
        assert!(ws <= wb + 1e-6, "star {ws} vs box {wb}");
    }

    #[test]
    fn mid_boundary_propagation_matches_prefix_semantics() {
        // Perturbation injected at boundary 2 (after the first activation).
        let net = sample_net(4);
        let x = [0.5, -0.5, 0.25];
        let mid = net.forward_prefix(&x, 2);
        let input = BoxBounds::from_center_radius(&mid, 0.05);
        let out = propagate_bounds(&net, 2, net.num_layers(), &input, Domain::Box);
        let mut rng = Prng::seed(11);
        for _ in 0..200 {
            let pert: Vec<f64> = mid
                .iter()
                .map(|&m| rng.uniform(m - 0.05, m + 0.05))
                .collect();
            assert!(out.contains(&net.forward_range(&pert, 2, net.num_layers())));
        }
    }

    #[test]
    fn propagator_reuse_equals_one_shot() {
        let net = sample_net(5);
        let prop = Propagator::new(&net, Domain::Box);
        let input = BoxBounds::from_center_radius(&[0.1, 0.1, 0.1], 0.02);
        assert_eq!(
            prop.bounds(0, net.num_layers(), &input),
            propagate_bounds(&net, 0, net.num_layers(), &input, Domain::Box)
        );
    }

    #[test]
    fn bounds_batch_equals_bounds_one_input_at_a_time() {
        let net = sample_net(6);
        let mut rng = Prng::seed(14);
        let inputs: Vec<BoxBounds> = (0..17)
            .map(|k| BoxBounds::from_center_radius(&rng.uniform_vec(3, -1.0, 1.0), 0.01 * k as f64))
            .collect();
        for domain in Domain::ALL {
            let prop = Propagator::new(&net, domain);
            for (from, to) in [(0, net.num_layers()), (2, 4), (1, 1)] {
                let at = |b: &BoxBounds| {
                    BoxBounds::from_center_radius(&net.forward_prefix(b.lo(), from), 0.02)
                };
                let inputs: Vec<BoxBounds> = inputs.iter().map(at).collect();
                for n in 0..=inputs.len() {
                    let one_by_one: Vec<BoxBounds> = inputs[..n]
                        .iter()
                        .map(|b| prop.bounds(from, to, b))
                        .collect();
                    assert_eq!(
                        prop.bounds_batch(from, to, &inputs[..n]),
                        one_by_one,
                        "{domain}"
                    );
                }
            }
        }
    }

    #[test]
    fn conv_pool_network_propagates_under_all_domains() {
        use napmon_nn::network::NetworkBuilder;
        let net = NetworkBuilder::image(3, 1, 6, 6)
            .conv(2, 3, 1, 1, Activation::Relu)
            .unwrap()
            .maxpool(2, 2)
            .unwrap()
            .dense(4, Activation::Relu)
            .dense(2, Activation::Identity)
            .build()
            .unwrap();
        let mut rng = Prng::seed(13);
        let center: Vec<f64> = rng.uniform_vec(36, 0.0, 1.0);
        let input = BoxBounds::from_center_radius(&center, 0.05);
        for domain in Domain::ALL {
            let out = propagate_bounds(&net, 0, net.num_layers(), &input, domain);
            for _ in 0..100 {
                let x: Vec<f64> = center
                    .iter()
                    .map(|&c| rng.uniform(c - 0.05, c + 0.05))
                    .collect();
                assert!(
                    out.contains(&net.forward(&x)),
                    "{domain}: conv image escaped"
                );
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn random_networks_random_points_stay_enclosed(
            seed in 0u64..5000,
            cx in -1.0..1.0f64,
            cy in -1.0..1.0f64,
            cz in -1.0..1.0f64,
            delta in 0.0..0.3f64,
            t0 in -1.0..1.0f64,
            t1 in -1.0..1.0f64,
            t2 in -1.0..1.0f64,
        ) {
            let net = sample_net(seed);
            let center = [cx, cy, cz];
            let x = [cx + t0 * delta, cy + t1 * delta, cz + t2 * delta];
            let input = BoxBounds::from_center_radius(&center, delta);
            let y = net.forward(&x);
            for domain in Domain::ALL {
                let out = propagate_bounds(&net, 0, net.num_layers(), &input, domain);
                prop_assert!(out.contains(&y), "{} failed containment", domain);
            }
        }
    }
}
