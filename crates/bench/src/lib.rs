//! Shared fixtures for the `napmon` benchmarks.
//!
//! The criterion benches and the `paper_tables` binary both need trained
//! perception networks and sampled datasets; this module provides seeded,
//! size-parameterized fixtures so every benchmark is reproducible.

use napmon_data::racetrack::TrackConfig;
use napmon_eval::{Experiment, RacetrackConfig};
use napmon_nn::{Activation, LayerSpec, Network};
use napmon_tensor::Prng;

/// A small trained race-track experiment for latency benchmarks
/// (seconds to prepare; the full-scale variant lives in `paper_tables`).
pub fn bench_experiment() -> Experiment {
    Experiment::prepare(RacetrackConfig {
        train_size: 512,
        test_size: 256,
        ood_size: 64,
        hidden: vec![32, 16],
        epochs: 5,
        track: TrackConfig {
            height: 12,
            width: 12,
            ..TrackConfig::default()
        },
        ..RacetrackConfig::default()
    })
}

/// An untrained (random) network of the given hidden widths over `input`
/// dimensions — enough for propagation/throughput benches where training
/// does not change the cost profile.
pub fn random_network(seed: u64, input: usize, hidden: &[usize]) -> Network {
    let mut specs: Vec<LayerSpec> = hidden
        .iter()
        .map(|&w| LayerSpec::dense(w, Activation::Relu))
        .collect();
    specs.push(LayerSpec::dense(2, Activation::Identity));
    Network::seeded(seed, input, &specs)
}

/// `n` random inputs for the given network.
pub fn random_inputs(seed: u64, net: &Network, n: usize) -> Vec<Vec<f64>> {
    let mut rng = Prng::seed(seed);
    (0..n)
        .map(|_| rng.uniform_vec(net.input_dim(), 0.0, 1.0))
        .collect()
}

/// The golden-artifact fixtures: deterministic monitor deployments,
/// each committed under `tests/` at the workspace root.
///
/// The committed files are the compatibility contract for
/// [`napmon_artifact::FORMAT_VERSION`]: `validate_artifact` (run in CI)
/// rebuilds every fixture in [`golden::fixtures`], loads its committed
/// file, and fails if the current reader can no longer parse it, its
/// verdicts drift from the freshly built monitor, or a fresh build no
/// longer serializes to the committed bytes. Regenerate (after an
/// intentional format bump) with `NAPMON_REGEN_GOLDEN=1 cargo run -p
/// napmon-bench --bin validate_artifact`.
pub mod golden {
    use napmon_absint::Domain;
    use napmon_artifact::MonitorArtifact;
    use napmon_core::{MonitorKind, MonitorSpec, PatternBackend, ThresholdPolicy};
    use napmon_nn::{Activation, LayerSpec, Network};
    use napmon_tensor::Prng;
    use std::path::PathBuf;

    /// One committed artifact: the file it lives in and the spec that
    /// builds it from [`network`] and [`train`].
    #[derive(Debug, Clone)]
    pub struct Fixture {
        /// File name under the workspace's `tests/` directory.
        pub file: &'static str,
        /// The build the file pins.
        pub spec: MonitorSpec,
    }

    impl Fixture {
        /// Where the committed file lives.
        pub fn path(&self) -> PathBuf {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../../tests")
                .join(self.file)
        }

        /// Builds the fixture from scratch (deterministic).
        pub fn build(&self) -> MonitorArtifact {
            MonitorArtifact::build(self.spec.clone(), &network(), &train())
                .unwrap_or_else(|e| panic!("golden fixture {} builds: {e}", self.file))
        }
    }

    /// Every committed fixture, all robust (Box, Δ = 0.05) at the last
    /// hidden boundary: a 2-bit interval BDD (so the arena serializer is
    /// part of the contract), an on-off BDD and an on-off hash set with
    /// Hamming tolerance 1, both with Mean thresholds.
    pub fn fixtures() -> Vec<Fixture> {
        let robust = |kind| MonitorSpec::new(2, kind).robust(0.05, 0, Domain::Box);
        let on_off = |backend, hamming| {
            robust(MonitorKind::pattern_with(
                ThresholdPolicy::Mean,
                backend,
                hamming,
            ))
        };
        vec![
            Fixture {
                file: "golden_artifact.json",
                spec: robust(MonitorKind::interval(2)),
            },
            Fixture {
                file: "golden_onoff_bdd.json",
                spec: on_off(PatternBackend::Bdd, 0),
            },
            Fixture {
                file: "golden_onoff_hash.json",
                spec: on_off(PatternBackend::HashSet, 1),
            },
        ]
    }

    /// The network the golden monitors are built against.
    pub fn network() -> Network {
        Network::seeded(
            2021,
            8,
            &[
                LayerSpec::dense(12, Activation::Relu),
                LayerSpec::dense(3, Activation::Identity),
            ],
        )
    }

    /// The golden training set.
    pub fn train() -> Vec<Vec<f64>> {
        let mut rng = Prng::seed(77);
        (0..64).map(|_| rng.uniform_vec(8, -1.0, 1.0)).collect()
    }

    /// The probe corpus the golden verdicts are pinned on: near-training
    /// and far-OOD inputs.
    pub fn probes() -> Vec<Vec<f64>> {
        let mut rng = Prng::seed(4242);
        let mut probes: Vec<Vec<f64>> = (0..48).map(|_| rng.uniform_vec(8, -1.0, 1.0)).collect();
        probes.extend((0..16).map(|_| rng.uniform_vec(8, -6.0, 6.0)));
        probes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixtures_are_deterministic() {
        let a = random_network(3, 8, &[6]);
        let b = random_network(3, 8, &[6]);
        assert_eq!(a, b);
        assert_eq!(random_inputs(1, &a, 4), random_inputs(1, &b, 4));
    }

    #[test]
    fn bench_experiment_prepares() {
        let e = bench_experiment();
        assert_eq!(e.network().input_dim(), 144);
    }
}
